"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and per-seed details.
"""

import math
import os
import struct
import time

import numpy as np

from fedmd import cli, experiments, nn, transport
from fedmd.data import synth_blobs
from fedmd.errors import CodecError
from fedmd.experiments import run_experiment
from fedmd.metrics import MetricsLog
from fedmd.protocol import CollaborationConfig, aggregate, make_party, run_fedmd


CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "configs")


def canonical(name: str, seed: int) -> experiments.ExperimentConfig:
    """One of the canonical experiments in ``configs/``, at the given seed."""
    return cli.parse_config(os.path.join(CONFIGS, name), [f"seed={seed}"])


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {name} {detail}"


def strip_wall(log: MetricsLog) -> list:
    return [(r.round, r.party, r.accuracy, r.digest_loss, r.revisit_loss) for r in log.rows]


def test_criterion_1_consensus_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        rows = int(rng.integers(1, 33))
        cols = int(rng.integers(1, 11))
        mats = [rng.uniform(-8, 8, size=(rows, cols)).astype(np.float32) for _ in range(m)]
        raw_w = rng.uniform(0.0, 1.0, size=m)
        weights = (raw_w / raw_w.sum()).tolist()
        out = aggregate([transport.ScoreReport(1, k, mat) for k, mat in enumerate(mats)], weights)
        for i in range(rows):  # float64 brute force, elementwise
            for j in range(cols):
                expected = 0.0
                for k in range(m):
                    expected += weights[k] * float(mats[k][i, j])
                worst = max(worst, abs(float(out.targets[i, j]) - expected))
    assert worst < 1e-6

    # one-hot identity, exact
    mats = [rng.normal(size=(6, 4)).astype(np.float32) for _ in range(4)]
    reports = [transport.ScoreReport(2, k, m_) for k, m_ in enumerate(mats)]
    for k in range(4):
        w = [0.0] * 4
        w[k] = 1.0
        assert np.array_equal(aggregate(reports, w).targets, mats[k])

    # permutation equivariance, exact
    weights = [0.4, 0.3, 0.2, 0.1]
    base = aggregate(reports, weights)
    perm = [3, 1, 0, 2]
    shuffled = aggregate([reports[i] for i in perm], [weights[i] for i in perm])
    assert np.array_equal(base.targets, shuffled.targets)

    elapsed = time.time() - t0
    report(1, "consensus oracle equivalence", elapsed < 10.0,
           f"max |err|={worst:.2e}, {elapsed:.1f}s < 10s")


def test_criterion_2_gradient_suite():
    t0 = time.time()
    check = nn.gradient_check(num_nets=50, seed=7)
    elapsed = time.time() - t0
    report(2, "gradient suite vs central finite differences",
           check.max_rel_err < 1e-3 and elapsed < 30.0,
           f"max rel err={check.max_rel_err:.2e} over {len(check.cases)} nets, {elapsed:.1f}s < 30s")


def adam_scalar_oracle(p0, grads, lr=0.001, b1=0.9, b2=0.999, eps=1e-8):
    p, m, v = float(p0), 0.0, 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
        out.append(p)
    return out


def test_criterion_3_adam_conformance():
    rng = np.random.default_rng(99)
    worst = 0.0
    for trial in range(20):
        p0 = float(rng.normal())
        if trial % 2 == 0:
            grads = rng.normal(scale=3.0, size=100).tolist()  # arbitrary gradient stream
        else:
            a, c = float(rng.uniform(0.5, 3.0)), float(rng.normal())
            grads = None  # quadratic objective a*(p-c)^2, gradient evaluated on the fly
        params = [np.array([p0], dtype=np.float64)]
        state = nn.AdamState.fresh(params, nn.AdamParams())
        trajectory = []
        oracle_grads = []
        for step in range(100):
            g = grads[step] if grads is not None else 2.0 * a * (float(params[0][0]) - c)
            oracle_grads.append(g)
            params, state = nn.adam_step(params, [np.array([g], dtype=np.float64)], state)
            trajectory.append(float(params[0][0]))
        expected = adam_scalar_oracle(p0, oracle_grads)
        worst = max(worst, max(abs(a_ - b_) for a_, b_ in zip(trajectory, expected)))
    report(3, "Adam 100-step trajectory conformance", worst < 1e-6, f"max per-step err={worst:.2e}")


def test_criterion_4_desk_scale_gain():
    t0 = time.time()
    gains, gaps = [], []
    pooled_never_materially_worse = True
    for seed in range(5):
        log, summary = run_experiment(canonical("blobs10.json", seed))
        base = [log.baseline_accuracy(k) for k in range(10)]
        final = [log.final_accuracy(k) for k in range(10)]
        pooled = [log.pooled_accuracy(k) for k in range(10)]
        gain = float(np.mean(final)) - float(np.mean(base))
        gap = float(np.mean(pooled)) - float(np.mean(final))
        gains.append(gain)
        gaps.append(gap)
        pooled_never_materially_worse &= all(p >= b - 0.02 for p, b in zip(pooled, base))
        print(f"  seed {seed}: mean base={np.mean(base):.3f} final={np.mean(final):.3f} "
              f"pooled={np.mean(pooled):.3f} gain={gain:+.3f} gap={gap:+.3f}")
    elapsed = time.time() - t0
    ok = (
        all(g >= 0.05 for g in gains)
        and float(np.mean(gaps)) <= 0.10
        and pooled_never_materially_worse
        and elapsed < 300.0
    )
    report(4, "desk-scale collaboration gain", ok,
           f"min gain={min(gains):+.3f} >= +0.05, mean gap={np.mean(gaps):+.3f} <= 0.10, "
           f"{elapsed:.0f}s < 300s")


def test_criterion_5_noniid_knowledge_transfer():
    chance = 1.0 / 3.0
    good_seeds = 0
    for seed in range(5):
        probe = experiments.run_noniid_probe(canonical("noniid.json", seed))
        pre_ok = all(abs(p - chance) <= 0.10 for p in probe.pre_unseen)
        post_ok = all(p >= chance + 0.15 for p in probe.post_unseen)
        good_seeds += pre_ok and post_ok
        print(f"  seed {seed}: pre={[f'{p:.2f}' for p in probe.pre_unseen]} "
              f"post={[f'{p:.2f}' for p in probe.post_unseen]} "
              f"{'ok' if pre_ok and post_ok else 'MISS'}")
    report(5, "non-iid never-seen-subclass transfer", good_seeds >= 4, f"{good_seeds}/5 seeds")


def test_criterion_6_self_consensus_fixed_point():
    cfg = CollaborationConfig(
        parties=1, rounds=3, subset_size=64, digest_epochs=2, digest_batch_size=32,
        revisit_epochs=1, revisit_batch_size=8, patience=30, max_epochs=120,
        transfer_batch_size=16, seed=11,
    )
    public = synth_blobs(3, 60, 8, 1.0, seed=100)
    pool = synth_blobs(3, 10, 8, 1.0, seed=101)
    test = synth_blobs(3, 80, 8, 1.0, seed=101, sample_stream=1)
    party = make_party(0, (16,), pool.take(np.arange(9)), 8, 3, cfg)
    # class-balance the private set: 3 per class
    idx = np.concatenate([np.flatnonzero(pool.labels == c)[:3] for c in range(3)])
    party.private = pool.take(idx)
    log = run_fedmd(cfg, [party], public, test)
    baseline = log.baseline_accuracy(0)
    rounds = [r for r in log.rows if isinstance(r.round, int)]
    first_digest_zero = rounds[0].digest_loss == 0.0
    drift_ok = all(abs(r.accuracy - baseline) <= 0.02 for r in rounds)
    report(6, "self-consensus fixed point", first_digest_zero and drift_ok,
           f"round-1 digest loss={rounds[0].digest_loss}, max |drift|="
           f"{max(abs(r.accuracy - baseline) for r in rounds):.3f} <= 0.02")


def test_criterion_7_wire_protocol():
    rng = np.random.default_rng(321)
    # 10^4 randomized round trips
    for _ in range(10_000):
        kind = int(rng.integers(4))
        rnd = int(rng.integers(0, 2**32))
        if kind == 0:
            msg = transport.RoundComplete(rnd)
        elif kind == 1:
            msg = transport.SubsetAnnouncement(
                rnd, rng.integers(0, 2**32, size=int(rng.integers(0, 20))).astype(np.int64)
            )
        elif kind == 2:
            msg = transport.ScoreReport(
                rnd, int(rng.integers(0, 2**32)),
                rng.normal(size=(int(rng.integers(0, 6)), int(rng.integers(1, 8)))).astype(np.float32),
            )
        else:
            msg = transport.ConsensusBroadcast(
                rnd, rng.normal(size=(int(rng.integers(0, 6)), int(rng.integers(1, 8)))).astype(np.float32)
            )
        assert transport.decode_message(transport.encode_message(msg)) == msg

    # 10^5 fuzz inputs: decoder is total
    valid = transport.encode_message(transport.ScoreReport(1, 2, np.zeros((2, 3), np.float32)))
    for i in range(100_000):
        n = int(rng.integers(0, 80))
        blob = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
        blobs = [blob]
        if i % 3 == 0 and len(blob) < len(valid):  # grind mutated prefixes of a real frame too
            blob = valid[: len(blob)] + blob[: max(0, len(blob) - 4)]
            blobs = [blob]
            if len(blob) >= 4:  # and the same bytes under a length prefix that matches them
                blobs.append(struct.pack(">I", len(blob) - 4) + blob[4:])
        for data in blobs:
            try:
                transport.decode_message(data)
            except CodecError:
                pass

    # cross-transport equality
    def world():
        from fedmd.data import partition_iid

        cfg = CollaborationConfig(
            parties=2, rounds=2, subset_size=48, digest_epochs=2, digest_batch_size=24,
            revisit_epochs=1, revisit_batch_size=8, patience=10, max_epochs=30,
            transfer_batch_size=16, seed=17,
        )
        public = synth_blobs(3, 40, 6, 1.0, seed=200)
        pool = synth_blobs(3, 12, 6, 1.0, seed=201)
        test = synth_blobs(3, 50, 6, 1.0, seed=201, sample_stream=1)
        split = partition_iid(pool, 2, 3, seed=17)
        parties = [make_party(k, (8,), split.parties[k], 6, 3, cfg) for k in range(2)]
        return cfg, parties, public, test

    cfg, parties, public, test = world()
    log_bus = run_fedmd(cfg, parties, public, test, transport_kind="bus")
    cfg, parties, public, test = world()
    log_tcp = run_fedmd(cfg, parties, public, test, transport_kind="tcp")
    cross_ok = strip_wall(log_bus) == strip_wall(log_tcp)
    report(7, "wire protocol round-trip, fuzz, cross-transport equality", cross_ok)


def test_criterion_8_determinism():
    def one_run():
        cfg = canonical("blobs10.json", 3)
        from dataclasses import replace

        cfg = replace(
            cfg,
            collab=replace(
                cfg.collab, parties=3, rounds=3, max_epochs=60, patience=20, weights=None
            ),
            architectures=cfg.architectures[:3],
            name="determinism",
        )
        log, _ = run_experiment(cfg)
        return log

    csv_a = one_run().to_csv().splitlines()
    csv_b = one_run().to_csv().splitlines()
    stripped_a = [ln.rsplit(",", 1)[0] for ln in csv_a]
    stripped_b = [ln.rsplit(",", 1)[0] for ln in csv_b]
    report(8, "identical config + seed gives identical CSV (modulo wall time)",
           stripped_a == stripped_b, f"{len(stripped_a)} rows compared")
