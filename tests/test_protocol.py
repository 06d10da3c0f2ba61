"""Protocol tests: subset selection, aggregation oracle, rounds, end-to-end runs."""

import os
import socket
import struct
import threading
import time

import numpy as np
import pytest

from fedmd import cli, nn, protocol, transport
from fedmd.data import synth_blobs
from fedmd.errors import ChannelError, ConfigError, DivergenceError, ProtocolError, ShapeError
from fedmd.protocol import (
    CollaborationConfig,
    PartyState,
    aggregate,
    compute_scores,
    make_party,
    party_loop,
    rng_stream,
    run_fedmd,
    select_subset,
    server_loop,
    transfer_learn,
)

from channel_util import loopback_pair
from net_util import share_no_parameter


CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "configs")


def small_cfg(parties, rounds, seed=0, **kw):
    defaults = dict(
        subset_size=64,
        digest_epochs=1,
        digest_batch_size=32,
        revisit_epochs=1,
        revisit_batch_size=8,
        max_epochs=15,
        patience=3,
        transfer_batch_size=16,
    )
    defaults.update(kw)
    return CollaborationConfig(parties=parties, rounds=rounds, seed=seed, **defaults)


def small_world(m, seed=0, classes=3, dim=4, per_class=3, public_spread=1.0, archs=None, **cfg_kw):
    from fedmd.data import partition_iid

    cfg = small_cfg(m, rounds=cfg_kw.pop("rounds", 2), seed=seed, **cfg_kw)
    public = synth_blobs(classes, 40, dim, public_spread, seed=seed * 31 + 1)
    pool = synth_blobs(classes, m * per_class + 5, dim, 1.0, seed=seed * 31 + 2)
    test = synth_blobs(classes, 50, dim, 1.0, seed=seed * 31 + 2, sample_stream=1)
    rows = partition_iid(pool, m, per_class, seed=seed)
    parties = [
        make_party(k, archs[k] if archs else (8,), pool.take(rows[k]), cfg)
        for k in range(m)
    ]
    return cfg, parties, public, test


def after_prologue(monkeypatch, hook):
    """Has every run call ``hook(parties)`` once its ``protocol.prologue`` has returned."""
    inner = protocol.prologue

    def prologue(parties, *args):
        rows = inner(parties, *args)
        hook(parties)
        return rows

    monkeypatch.setattr(protocol, "prologue", prologue)


# --- transfer learning -----------------------------------------------------------


def test_transfer_learn_zero_epochs_keeps_network():
    cfg, parties, public, test = small_world(1, max_epochs=0)
    party = parties[0]
    before = [p.copy() for p in party.net.parameters()]
    [(rep_pub, rep_priv)] = transfer_learn([party], public, cfg)
    assert rep_pub.epochs == 0 and rep_priv.epochs == 0
    assert all(np.array_equal(a, b) for a, b in zip(before, party.net.parameters()))


def test_transfer_learn_beats_chance():
    for seed in range(5):
        cfg, parties, public, test = small_world(
            1, seed=seed, classes=3, dim=8, public_spread=2.5, max_epochs=400, patience=100
        )
        transfer_learn(parties[:1], public, cfg)
        acc = nn.accuracy(parties[0].net, test)
        assert acc >= 1 / 3 + 0.20, f"seed {seed}: baseline {acc:.3f}"


def test_transfer_learn_identical_parties_identical_baselines():
    results = []
    for _ in range(2):
        cfg, parties, public, test = small_world(1, seed=3)
        transfer_learn(parties[:1], public, cfg)
        results.append(nn.accuracy(parties[0].net, test))
    assert results[0] == results[1]


def test_transfer_learn_snapshot_survives_further_training():
    cfg, parties, public, _ = small_world(1)
    party = parties[0]
    transfer_learn([party], public, cfg)
    snapshot = [p.copy() for p in party.pretrained.parameters()]
    member = nn.Member(party.net, party.private.features, party.private.labels, np.random.default_rng(0))
    nn.train_supervised([member], 3, 4, cfg.lr)
    assert not all(np.array_equal(a, b) for a, b in zip(snapshot, party.net.parameters()))
    assert all(np.array_equal(a, b) for a, b in zip(snapshot, party.pretrained.parameters()))


def test_transfer_learn_dim_mismatch():
    cfg, parties, public, _ = small_world(1)
    bad_public = synth_blobs(3, 10, 9, 1.0, seed=0)
    with pytest.raises(ShapeError):
        transfer_learn(parties[:1], bad_public, cfg)


# --- training every party in one call changes no result ---------------------------

MIXED_ARCHS = ((8,), (6, 5), (12,), (4, 7))


def row_values(rows):
    return [(r.round, r.party, r.accuracy, r.digest_loss, r.revisit_loss) for r in rows]


def phase_calls(monkeypatch, name):
    """The member count of every later ``nn.<name>`` call, in call order."""
    calls, inner = [], getattr(nn, name)

    def recording(members, *args, **kwargs):
        calls.append(len(members))
        return inner(members, *args, **kwargs)

    monkeypatch.setattr(nn, name, recording)
    return calls


def test_prologue_in_one_group_matches_each_party_alone(monkeypatch):
    cfg, parties, public, test = small_world(4, archs=MIXED_ARCHS, max_epochs=40, patience=4)
    calls = phase_calls(monkeypatch, "train_to_convergence")
    grouped = protocol.prologue(parties, public, test, cfg)
    assert calls == [4, 4]  # the public phase, then the private one
    _, lone, _, _ = small_world(4, archs=MIXED_ARCHS, max_epochs=40, patience=4)
    alone = [row for p in lone for row in protocol.prologue([p], public, test, cfg)]
    assert row_values(grouped) == row_values(alone)
    for p, q in zip(parties, lone):
        for net_p, net_q in ((p.net, q.net), (p.pretrained, q.pretrained)):
            assert all(np.array_equal(a, b) for a, b in zip(net_p.parameters(), net_q.parameters()))
    assert share_no_parameter([p.net for p in parties] + [p.pretrained for p in parties])


def test_pooled_rows_in_one_group_match_each_party_alone():
    from fedmd.experiments import ExperimentConfig, TaskData, baseline_pooled

    cfg, parties, public, test = small_world(3, archs=MIXED_ARCHS, max_epochs=30)
    protocol.prologue(parties, public, test, cfg)
    task = TaskData(public, [p.private for p in parties], test)
    exp = ExperimentConfig(cfg, architectures=MIXED_ARCHS[:3])
    grouped = baseline_pooled(exp, task, parties)
    alone = [row for p in parties for row in baseline_pooled(exp, task, [p])]
    assert row_values(grouped) == row_values(alone)
    assert sum(r.wall_ms for r in grouped) > 0


def shorten_private(party):
    """Drop the last row of ``party``'s private set, so ``nn`` steps its private phase in a group of its own."""
    party.private = party.private.take(np.arange(party.private.n - 1))


def test_party_with_a_shorter_private_set_trains_in_its_own_group(monkeypatch):
    cfg, parties, public, test = small_world(3, archs=MIXED_ARCHS, max_epochs=20)
    shorten_private(parties[1])
    calls = phase_calls(monkeypatch, "train_to_convergence")
    grouped = protocol.prologue(parties, public, test, cfg)
    assert calls == [3, 3]  # nn, not protocol, splits the private call
    _, lone, _, _ = small_world(3, archs=MIXED_ARCHS, max_epochs=20)
    shorten_private(lone[1])
    alone = [row for p in lone for row in protocol.prologue([p], public, test, cfg)]
    assert row_values(grouped) == row_values(alone)


def test_non_finite_private_row_fails_its_party_and_shares_no_parameter():
    cfg, parties, public, test = small_world(3, archs=MIXED_ARCHS, rounds=1, max_epochs=20)
    parties[1].private.features[0, 0] = np.nan
    with np.errstate(all="ignore"), pytest.raises(
        ProtocolError, match=r"^party 1 failed during transfer: non-finite training loss in epoch 0$"
    ):
        run_fedmd(cfg, parties, public, test)
    assert share_no_parameter([p.net for p in parties])


@pytest.mark.parametrize("lone, who", [(False, "parties 0, 1, 2"), (True, "party 0")])
def test_other_transfer_failure_names_its_group(monkeypatch, lone, who):
    # a failure that names no member names every party of the call, or its lone party
    cfg, parties, public, test = small_world(1 if lone else 3, archs=MIXED_ARCHS, rounds=1, max_epochs=5)

    def fit_private(parties, cfg):
        raise RuntimeError("boom")

    monkeypatch.setattr(protocol, "fit_private", fit_private)
    with pytest.raises(ProtocolError, match=rf"^{who} failed during transfer: boom$"):
        run_fedmd(cfg, parties, public, test)


@pytest.mark.parametrize(
    "error, who",
    [(DivergenceError("poisoned", 1), "party 1"), (RuntimeError("boom"), "parties 0, 1, 2")],
    ids=["member", "every-party"],
)
def test_pooled_fit_failure_names_the_member_or_every_party(monkeypatch, error, who):
    from fedmd import experiments
    from fedmd.experiments import ExperimentConfig, TaskData, baseline_pooled

    cfg, parties, public, test = small_world(3, max_epochs=5)
    protocol.prologue(parties, public, test, cfg)
    task = TaskData(public, [p.private for p in parties], test)

    def fit_private(parties, cfg):
        raise error

    monkeypatch.setattr(experiments, "fit_private", fit_private)
    with pytest.raises(ProtocolError, match=rf"^{who} failed during pooled fit: {error}$"):
        baseline_pooled(ExperimentConfig(cfg, architectures=((8,),) * 3), task, parties)


def test_baseline_evaluation_failure_names_its_party(monkeypatch):
    cfg, parties, public, test = small_world(3, rounds=1, max_epochs=5)
    inner = nn.accuracy

    def accuracy(net, data):  # the convergence checks evaluate on held-out data, not on ``test``
        if net is parties[1].net and data is test:
            raise ValueError("boom")
        return inner(net, data)

    monkeypatch.setattr(nn, "accuracy", accuracy)
    with pytest.raises(ProtocolError, match=r"^party 1 failed during transfer: boom$"):
        run_fedmd(cfg, parties, public, test)


# --- subset selection ----------------------------------------------------------------


def test_select_subset_full_is_permutation():
    sel = select_subset(10, 10, np.random.default_rng(0), round_index=1)
    assert sorted(sel.indices.tolist()) == list(range(10))


def test_select_subset_single():
    sel = select_subset(100, 1, np.random.default_rng(1), round_index=2)
    assert sel.indices.shape == (1,)
    assert 0 <= sel.indices[0] < 100


def test_select_subset_uniform_inclusion_frequency():
    # hypergeometric: P(index 7 included) = 10/100
    rng = np.random.default_rng(42)
    hits = sum(7 in select_subset(100, 10, rng, 0).indices for _ in range(10_000))
    assert abs(hits / 10_000 - 0.1) <= 0.01


def test_select_subset_unique_and_in_range():
    for j in range(5):
        sel = select_subset(50, 20, rng_stream(0, "subset", j), j)
        assert len(set(sel.indices.tolist())) == 20
        assert sel.indices.min() >= 0 and sel.indices.max() < 50


# --- compute_scores -------------------------------------------------------------------


def test_compute_scores_zero_net():
    cfg, parties, public, _ = small_world(1)
    for p in parties[0].net.parameters():
        p[...] = 0
    sel = select_subset(public.n, 7, np.random.default_rng(0), 1)
    sm = compute_scores(parties[0], public, sel)
    assert np.array_equal(sm.scores, np.zeros((7, 3), dtype=np.float32))


def test_compute_scores_single_sample_matches_forward():
    cfg, parties, public, _ = small_world(1)
    sel = transport.SubsetAnnouncement(1, np.array([4]))
    sm = compute_scores(parties[0], public, sel)
    direct = nn.forward(parties[0].net, public.features[4:5])
    assert np.array_equal(sm.scores, direct)


def test_compute_scores_batched_equals_rowwise():
    cfg, parties, public, _ = small_world(1)
    sel = select_subset(public.n, 23, np.random.default_rng(5), 1)
    sm = compute_scores(parties[0], public, sel)
    rowwise = np.vstack(
        [nn.forward(parties[0].net, public.features[i : i + 1]) for i in sel.indices]
    )
    assert np.allclose(sm.scores, rowwise, atol=1e-6)


# --- aggregate -------------------------------------------------------------------------


def score(party, arr):
    return transport.ScoreReport(1, party, np.asarray(arr, dtype=np.float32))


def test_aggregate_single_party_identity():
    rep = score(0, [[1.0, -2.0], [0.5, 3.0]])
    out = aggregate([rep], [1.0])
    assert np.array_equal(out.targets, rep.scores)


def test_aggregate_two_party_arithmetic():
    out = aggregate([score(0, [[1.0, 3.0]]), score(1, [[3.0, 5.0]])], [0.5, 0.5])
    assert np.array_equal(out.targets, np.array([[2.0, 4.0]], dtype=np.float32))


def test_aggregate_matches_float64_bruteforce():
    rng = np.random.default_rng(17)
    mats = [rng.uniform(-8, 8, size=(4, 6)).astype(np.float32) for _ in range(3)]
    weights = [0.5, 0.3, 0.2]
    out = aggregate([score(k, m) for k, m in enumerate(mats)], weights)
    for i in range(4):
        for j in range(6):
            expected = sum(w * float(m[i, j]) for w, m in zip(weights, mats))
            assert abs(float(out.targets[i, j]) - expected) < 1e-6


def test_aggregate_permutation_equivariance_exact():
    rng = np.random.default_rng(23)
    mats = [rng.normal(size=(3, 4)).astype(np.float32) for _ in range(4)]
    weights = [0.4, 0.3, 0.2, 0.1]
    reports = [score(k, m) for k, m in enumerate(mats)]
    base = aggregate(reports, weights)
    perm = [2, 0, 3, 1]
    permuted = aggregate([reports[i] for i in perm], [weights[i] for i in perm])
    assert np.array_equal(base.targets, permuted.targets)


def test_aggregate_one_hot_weights_select_party():
    rng = np.random.default_rng(29)
    reports = [score(k, rng.normal(size=(5, 3)).astype(np.float32)) for k in range(3)]
    out = aggregate(reports, [0.0, 1.0, 0.0])
    assert np.array_equal(out.targets, reports[1].scores)


# --- rounds and full runs ------------------------------------------------------------


def test_run_fedmd_zero_rounds_only_baselines():
    cfg, parties, public, test = small_world(10, rounds=0, max_epochs=3)
    log = run_fedmd(cfg, parties, public, test)
    assert len(log.rows) == 10
    assert all(r.round == "baseline" for r in log.rows)
    assert [r.party for r in log.rows] == list(range(10))


def test_self_consensus_fixed_point():
    cfg, parties, public, test = small_world(1, rounds=3, max_epochs=25)
    log = run_fedmd(cfg, parties, public, test)
    baseline = log.baseline_accuracy(0)
    round_rows = [r for r in log.rows if isinstance(r.round, int)]
    assert len(round_rows) == 3
    assert round_rows[0].digest_loss == 0.0
    for row in round_rows:
        assert abs(row.accuracy - baseline) <= 0.02


def test_symmetric_parties_get_identical_metrics(monkeypatch):
    def party_0_streams(seed, *tags):  # party 1 draws every stream of party 0
        return rng_stream(seed, *((0,) + tags[1:] if tags[:1] == (1,) else tags))

    monkeypatch.setattr(protocol, "rng_stream", party_0_streams)
    cfg = small_cfg(2, rounds=2, max_epochs=10)
    public = synth_blobs(3, 40, 4, 1.0, seed=77)
    test = synth_blobs(3, 40, 4, 1.0, seed=78)
    private = synth_blobs(3, 4, 4, 1.0, seed=79)
    net = nn.build_network(4, (8,), 3, rng_stream(0, 0, "init"))
    parties = [PartyState(0, net.copy(), private), PartyState(1, net.copy(), private)]
    log = run_fedmd(cfg, parties, public, test)
    for j in (1, 2):
        rows = [r for r in log.rows if r.round == j]
        assert rows[0].accuracy == rows[1].accuracy
        assert rows[0].digest_loss == rows[1].digest_loss
        assert rows[0].revisit_loss == rows[1].revisit_loss


def test_run_fedmd_event_ordering_with_threads(monkeypatch):
    cfg, parties, public, test = small_world(3, rounds=2, max_epochs=2)
    events = []
    calls = {}  # (step, party) -> rounds of that step the party has trained
    owner = {}  # id(party.net) -> party.id, taken after each prologue

    def record(module, name, event):
        inner = getattr(module, name)

        def wrapper(*args):
            out = inner(*args)
            events.extend(event(*args))
            return out

        monkeypatch.setattr(module, name, wrapper)

    def round_step(step):
        def event(members, *_args):  # one event per member of the group
            for member in members:
                k = owner[id(member.net)]
                calls[step, k] = calls.get((step, k), 0) + 1
                yield (step, calls[step, k], k)

        return event

    record(protocol, "compute_scores", lambda party, _public, sel: [("scores", sel.round, party.id)])
    record(protocol, "aggregate", lambda reports, _weights: [("aggregate", reports[0].round)])
    record(nn, "train_distill", round_step("digest"))
    record(nn, "train_supervised", round_step("revisit"))
    after_prologue(monkeypatch, lambda parties: owner.update({id(p.net): p.id for p in parties}))
    run_fedmd(cfg, parties, public, test)
    for j in (1, 2):
        agg = events.index(("aggregate", j))
        for k in range(3):
            assert events.index(("scores", j, k)) < agg
            digest = events.index(("digest", j, k))
            revisit = events.index(("revisit", j, k))
            assert agg < digest < revisit


def test_baseline_wall_ms_counts_only_own_compute():
    # the prologue call's time is split among its parties, so the rows sum to the prologue's time
    cfg, parties, public, test = small_world(3, rounds=0, max_epochs=15)
    t0 = time.perf_counter()
    log = run_fedmd(cfg, parties, public, test)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    baseline_ms = sum(r.wall_ms for r in log.rows if r.round == "baseline")
    assert baseline_ms <= wall_ms


def test_run_fedmd_tcp_more_parties_than_default_backlog():
    cfg, parties, public, test = small_world(18, rounds=1, max_epochs=2, per_class=1)
    done = {}
    worker = threading.Thread(
        target=lambda: done.update(log=run_fedmd(cfg, parties, public, test, transport_kind="tcp")),
        daemon=True,
    )
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive(), "an 18-party TCP run did not finish within 60 s"
    assert sorted({r.party for r in done["log"].rows}) == list(range(18))


def test_run_fedmd_deterministic_per_seed():
    logs = []
    for _ in range(2):
        cfg, parties, public, test = small_world(2, rounds=2, seed=5, max_epochs=8)
        logs.append(run_fedmd(cfg, parties, public, test))
    a, b = logs
    assert len(a.rows) == len(b.rows)
    for ra, rb in zip(a.rows, b.rows):
        assert (ra.round, ra.party, ra.accuracy, ra.digest_loss, ra.revisit_loss) == (
            rb.round,
            rb.party,
            rb.accuracy,
            rb.digest_loss,
            rb.revisit_loss,
        )


def test_cross_transport_runs_agree():
    cfg, parties_bus, public, test = small_world(2, rounds=2, seed=9, max_epochs=6)
    log_bus = run_fedmd(cfg, parties_bus, public, test, transport_kind="bus")
    cfg2, parties_tcp, public2, test2 = small_world(2, rounds=2, seed=9, max_epochs=6)
    log_tcp = run_fedmd(cfg2, parties_tcp, public2, test2, transport_kind="tcp")
    for ra, rb in zip(log_bus.rows, log_tcp.rows):
        assert (ra.round, ra.party, ra.accuracy, ra.digest_loss, ra.revisit_loss) == (
            rb.round,
            rb.party,
            rb.accuracy,
            rb.digest_loss,
            rb.revisit_loss,
        )


def test_run_fedmd_validates_before_training():
    cfg, parties, public, test = small_world(2)
    with pytest.raises(ConfigError, match="non-negative"):
        bad = CollaborationConfig(parties=2, rounds=1, weights=(0.5, -0.5))
        run_fedmd(bad, parties, public, test)
    with pytest.raises(ConfigError, match="parties"):
        run_fedmd(small_cfg(3, 1), parties, public, test)


def test_run_fedmd_class_count_mismatch_fails_before_training(monkeypatch):
    cfg, parties, public, test = small_world(2, rounds=1)
    parties[1].net = nn.build_network(public.dim, (8,), test.num_classes + 1, rng_stream(0, 1, "init"))
    monkeypatch.setattr(protocol, "prologue", lambda *args: pytest.fail("trained before the shape check"))
    with pytest.raises(ShapeError, match=r"^party 1 output dim 4 does not match 3 test classes$"):
        run_fedmd(cfg, parties, public, test)


def no_rows(data):
    return data.take(np.array([], dtype=np.int64))


@pytest.mark.parametrize(
    "breach, error, message",
    [
        (
            lambda w: setattr(w["parties"][1], "id", 2),
            ConfigError,
            r"^config names 2 parties, ids 0\.\.1, but got ids \[0, 2\]$",
        ),
        (
            lambda w: setattr(w["parties"][1], "net", nn.build_network(5, (8,), 3, np.random.default_rng(0))),
            ShapeError,
            "^party 1 input dim 5 does not match public dim 4$",
        ),
        (
            lambda w: setattr(w["parties"][1], "private", no_rows(w["parties"][1].private)),
            ConfigError,
            "^party 1 has an empty private dataset$",
        ),
        (lambda w: w.update(public=no_rows(w["public"])), ConfigError, "^public dataset is empty$"),
        (
            lambda w: w.update(test=synth_blobs(3, 5, 5, 1.0, seed=0)),
            ShapeError,
            "^test feature dim 5 does not match public dim 4$",
        ),
        (lambda w: w.update(kind="x"), ConfigError, "^unknown transport 'x'$"),
    ],
    ids=["ids", "input-dim", "empty-private", "empty-public", "test-dim", "transport"],
)
def test_run_fedmd_refuses_a_bad_world_before_training(monkeypatch, breach, error, message):
    cfg, parties, public, test = small_world(2, rounds=1)
    world = {"parties": parties, "public": public, "test": test, "kind": "bus"}
    breach(world)
    monkeypatch.setattr(protocol, "prologue", lambda *args: pytest.fail("trained before the check"))
    with pytest.raises(error, match=message):
        run_fedmd(cfg, world["parties"], world["public"], world["test"], world["kind"])


def test_run_fedmd_party_failure_identifies_party_and_step(monkeypatch):
    cfg, parties, public, test = small_world(2, rounds=1, max_epochs=2)

    def poison(parties):  # party 1's private data goes non-finite after its prologue, so its revisit diverges
        parties[1].private.features[0, 0] = np.nan

    after_prologue(monkeypatch, poison)
    with np.errstate(all="ignore"), pytest.raises(ProtocolError, match="^party 1 round 1: revisit failed: non-finite"):
        run_fedmd(cfg, parties, public, test)


def test_the_callers_thread_runs_every_party_computation(monkeypatch):
    threads = set()  # (ident, name) of each thread that trained or evaluated a network
    for name in ("train_to_convergence", "train_distill", "train_supervised", "accuracy"):

        def wrapper(*args, _inner=getattr(nn, name), **kwargs):
            me = threading.current_thread()
            threads.add((me.ident, me.name))
            return _inner(*args, **kwargs)

        monkeypatch.setattr(nn, name, wrapper)
    for kind in ("bus", "tcp"):
        cfg, parties, public, test = small_world(3, rounds=2, max_epochs=2)
        run_fedmd(cfg, parties, public, test, transport_kind=kind)
    assert len(threads) == 1, sorted(name for _, name in threads)
    ((ident, name),) = threads
    assert ident == threading.get_ident()
    assert not name.startswith("party-")


def diverging_member(poisoned, inner):
    """A wrapper of a group training call that reports ``poisoned``'s network as diverged."""

    def failing(members, *args):
        for i, member in enumerate(members):
            if member.net is poisoned:
                raise DivergenceError("poisoned", i)
        return inner(members, *args)

    return failing


def test_a_failed_run_leaves_the_callers_thread_usable(monkeypatch):
    def rows(log):
        return [(r.round, r.party, r.accuracy, r.digest_loss, r.revisit_loss) for r in log.rows]

    cfg, parties, public, test = small_world(3, rounds=2, max_epochs=2)
    clean = rows(run_fedmd(cfg, parties, public, test))

    cfg, parties, public, test = small_world(3, rounds=2, max_epochs=2)
    monkeypatch.setattr(nn, "train_distill", diverging_member(parties[1].net, nn.train_distill))
    with pytest.raises(ProtocolError, match="party 1 round 1: digest failed: poisoned"):
        run_fedmd(cfg, parties, public, test)
    monkeypatch.undo()

    cfg, parties, public, test = small_world(3, rounds=2, max_epochs=2)
    done = {}
    worker = threading.Thread(
        target=lambda: done.update(log=run_fedmd(cfg, parties, public, test)), daemon=True
    )
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive(), "the run after a failed job did not finish within 60 s"
    assert rows(done["log"]) == clean


@pytest.mark.parametrize("kind", ["bus", "tcp"])
def test_round_failure_outside_digest_and_revisit_names_its_party(monkeypatch, kind):
    # party 1's evaluation after the round's digest and revisit of parties 0-2 fails
    cfg, parties, public, test = small_world(3, rounds=1, max_epochs=2)
    rounds_started, inner = [], nn.accuracy

    def accuracy(net, data):
        if rounds_started and net is parties[1].net:
            raise ValueError("boom")
        return inner(net, data)

    monkeypatch.setattr(nn, "accuracy", accuracy)
    after_prologue(monkeypatch, rounds_started.append)
    with pytest.raises(ProtocolError, match=r"^party 1 failed during rounds: boom$"):
        run_fedmd(cfg, parties, public, test, transport_kind=kind)


@pytest.mark.parametrize(
    "fail, message",
    [
        (None, None),
        ("train_distill", r"^party 1 round 1: digest failed: poisoned$"),
        ("train_to_convergence", r"^party 1 failed during transfer: poisoned$"),
    ],
    ids=["clean", "failing-digest", "failing-prologue"],
)
@pytest.mark.parametrize("kind", ["bus", "tcp"])
def test_no_thread_outlives_a_run(monkeypatch, kind, fail, message):
    cfg, parties, public, test = small_world(3, rounds=2, max_epochs=2)
    made, inner = [], transport.TcpChannel.__init__

    def recording_init(self, *args):
        made.append(self)
        inner(self, *args)

    monkeypatch.setattr(transport.TcpChannel, "__init__", recording_init)
    if fail:
        monkeypatch.setattr(nn, fail, diverging_member(parties[1].net, getattr(nn, fail)))
        with pytest.raises(ProtocolError, match=message):
            run_fedmd(cfg, parties, public, test, transport_kind=kind)
    else:
        run_fedmd(cfg, parties, public, test, transport_kind=kind)
    alive = [t.name for t in threading.enumerate() if t.name.startswith(("fedmd-", "party-"))]
    assert alive == []
    assert len(made) == (0 if fail == "train_to_convergence" else 6)  # a failed prologue opens no channel
    for chan in made:
        with pytest.raises(ChannelError, match="^channel is closed$"):
            chan.recv()


@pytest.mark.parametrize(
    "where, error, message",
    [
        ("aggregate", ProtocolError("bad consensus"), r"^bad consensus$"),
        ("aggregate", ValueError("boom"), r"^server failed: boom$"),
        ("after-the-rounds", ValueError("late"), r"^server failed: late$"),
    ],
    ids=["protocol-error", "other-error", "after-the-rounds"],
)
@pytest.mark.parametrize("kind", ["bus", "tcp"])
def test_a_failed_server_is_reported_in_place_of_the_party_side_teardown(monkeypatch, kind, where, error, message):
    # the parties see only a closed channel, or nothing at all when the server fails after the last round
    cfg, parties, public, test = small_world(2, rounds=1, max_epochs=2)
    if where == "aggregate":
        def aggregate(reports, weights):
            raise error

        monkeypatch.setattr(protocol, "aggregate", aggregate)
    else:
        inner = protocol.server_loop

        def server_loop(*args):
            inner(*args)
            raise error

        monkeypatch.setattr(protocol, "server_loop", server_loop)
    with pytest.raises(ProtocolError, match=message):
        run_fedmd(cfg, parties, public, test, transport_kind=kind)


@pytest.mark.parametrize("kind", ["bus", "tcp"])
def test_a_server_that_ends_before_the_rounds_fails_the_run_with_a_closed_channel(monkeypatch, kind):
    cfg, parties, public, test = small_world(2, rounds=1, max_epochs=2)

    def server_loop(channels, *args):  # reads every hello, then returns cleanly with its ends closed
        for chan in channels:
            chan.recv()
            chan.close()

    monkeypatch.setattr(protocol, "server_loop", server_loop)
    with pytest.raises(ChannelError, match="^party 0 round 1: subset: peer closed the channel$"):
        run_fedmd(cfg, parties, public, test, transport_kind=kind)
    assert [t.name for t in threading.enumerate() if t.name.startswith("fedmd-")] == []


@pytest.mark.parametrize("kind", ["bus", "tcp"])
def test_channels_and_the_server_start_only_after_the_prologue(monkeypatch, kind):
    cfg, parties, public, test = small_world(2, rounds=1, max_epochs=2)
    made, seen = [], []  # every channel made, and what existed whenever the prologue's training ran
    inner_init, inner_transfer = transport.TcpChannel.__init__, protocol.transfer_learn

    def recording_init(self, *args):
        made.append(self)
        inner_init(self, *args)

    def existing():
        return len(made), [t.name for t in threading.enumerate() if t.name.startswith("fedmd-server")]

    def transfer_learn(*args):
        seen.append(existing())
        reports = inner_transfer(*args)
        seen.append(existing())
        return reports

    monkeypatch.setattr(transport.TcpChannel, "__init__", recording_init)
    monkeypatch.setattr(protocol, "transfer_learn", transfer_learn)
    run_fedmd(cfg, parties, public, test, transport_kind=kind)
    assert seen == [(0, []), (0, [])]  # at its start and at its end
    assert len(made) == 4  # then every party end and every server end


@pytest.mark.parametrize("failing", ["bus", "connect", "accept"])
def test_failed_tcp_setup_closes_the_listener_and_every_end_before_it(monkeypatch, failing):
    # each party's pair is made in turn, a socketpair or a connect and then its accept; party 2's step fails
    cfg, parties, public, test = small_world(3, rounds=1, max_epochs=2)
    error = OSError if failing == "bus" else ChannelError
    made, closed, served = [], [], []

    def record(owner, name, fails_on_call):
        inner, calls = getattr(owner, name), []

        def call(*args):
            calls.append(args)
            if len(calls) == fails_on_call:
                raise error("refused")
            ends = inner(*args)
            made.extend(ends if isinstance(ends, tuple) else [ends])
            return ends

        monkeypatch.setattr(owner, name, call)

    def spy_close(cls):
        inner = cls.close

        def close(self):
            closed.append(self)
            inner(self)

        monkeypatch.setattr(cls, "close", close)

    record(transport, "bus_pair", 3 if failing == "bus" else None)
    record(transport, "connect", 3 if failing == "connect" else None)
    record(transport.TcpListener, "accept", 3 if failing == "accept" else None)
    spy_close(transport.TcpChannel)
    spy_close(transport.TcpListener)
    monkeypatch.setattr(protocol, "server_loop", lambda *args: served.append(args))
    with pytest.raises(error, match="^refused$"):
        run_fedmd(cfg, parties, public, test, transport_kind="bus" if failing == "bus" else "tcp")
    # bus: two pairs; connect: two connected and two accepted ends; accept: three connected, two accepted
    assert len(made) == {"bus": 4, "connect": 4, "accept": 5}[failing]
    channels = [c for c in closed if isinstance(c, transport.TcpChannel)]
    assert len(channels) == len(made) and {id(c) for c in channels} == {id(c) for c in made}
    listeners = [c for c in closed if isinstance(c, transport.TcpListener)]
    assert len(listeners) == (failing != "bus")
    assert served == []  # no server thread was started


def test_party_loop_order_survives_frames_larger_than_socket_buffers():
    # a send of a frame larger than the socket buffers blocks until the peer reads it
    cfg = small_cfg(3, rounds=2, subset_size=3000)
    public = synth_blobs(3, 1000, 4, 1.0, seed=11)  # 3000 rows: 12 KB subsets, 36 KB scores
    test = synth_blobs(3, 10, 4, 1.0, seed=12)
    private = synth_blobs(3, 2, 4, 1.0, seed=13)
    parties = [make_party(k, (8,), private, cfg) for k in (2, 1, 0)]  # not in server order
    server_ends, party_ends = {}, {}
    for k in range(3):
        a, b = socket.socketpair()
        for sock in (a, b):
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        server_ends[k], party_ends[k] = transport.TcpChannel(a, 5.0), transport.TcpChannel(b, 5.0)
    errors = []

    def serve():
        try:
            server_loop(list(server_ends.values()), cfg, public.n, 3)
        except BaseException as exc:
            errors.append(exc)

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    try:
        rows = party_loop(parties, public, test, cfg, party_ends)
    finally:
        for chan in party_ends.values():
            chan.close()
        server.join()
        for chan in server_ends.values():
            chan.close()
    assert errors == []
    assert [(r.round, r.party) for r in rows] == [(j, k) for j in (1, 2) for k in range(3)]


def rounds_over_bus(parties, public, test, cfg):
    """``party_loop``'s rows for the parties, against ``server_loop`` on a thread over bus pairs."""
    pairs = {p.id: transport.bus_pair(timeout=30.0) for p in parties}
    errors = []

    def serve():
        try:
            server_loop([ends[0] for ends in pairs.values()], cfg, public.n, test.num_classes)
        except BaseException as exc:
            errors.append(exc)

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    try:
        rows = party_loop(parties, public, test, cfg, {k: ends[1] for k, ends in pairs.items()})
    finally:  # party_loop closed the party ends, which releases a server still waiting on one
        server.join()
    assert errors == []
    return rows


def test_grouped_rounds_train_each_party_bitwise_as_alone(monkeypatch):
    archs = cli.parse_config(os.path.join(CONFIGS, "blobs10.json")).architectures
    assert len(archs) == 10
    cfg = small_cfg(10, rounds=2, digest_epochs=2, revisit_epochs=2, revisit_batch_size=4)
    public = synth_blobs(3, 40, 4, 1.0, seed=21)
    test = synth_blobs(3, 20, 4, 1.0, seed=22)
    pool = synth_blobs(3, 40, 4, 1.0, seed=23)
    # private sets of 9, 6 and 12 rows: nn steps each revisit as groups of five, four and one party
    sizes = [9] * 5 + [6] * 4 + [12]
    starts = np.cumsum([0] + sizes)
    parties = [
        make_party(k, arch, pool.take(np.arange(starts[k], starts[k + 1])), cfg)
        for k, arch in enumerate(archs)
    ]
    alone = [PartyState(p.id, p.net.copy(), p.private) for p in parties]

    sources = []  # (members, inputs rows, targets rows) of each group nn trains from one source
    inner = nn._shared_rows

    def recording(members):
        inputs, targets, rows = inner(members)
        if targets.ndim == 2:  # score targets: a digest group
            assert all(r is None for r in rows)  # every member trains on every row of the one source
            sources.append((len(members), inputs.shape[0], targets.shape[0]))
        return inputs, targets, rows

    monkeypatch.setattr(nn, "_shared_rows", recording)
    digests = phase_calls(monkeypatch, "train_distill")
    revisits = phase_calls(monkeypatch, "train_supervised")
    rows = rounds_over_bus(parties, public, test, cfg)
    monkeypatch.undo()
    assert digests == revisits == [10] * 2
    # an honest server sends every party the same frames, so ten digests train from one subset's rows
    assert sources == [(10, cfg.subset_size, cfg.subset_size)] * 2

    expected = []
    for j in (1, 2):
        selection = select_subset(public.n, cfg.subset_size, rng_stream(cfg.seed, "subset", j), j)
        reports = [compute_scores(p, public, selection) for p in alone]
        targets = aggregate(reports, cfg.weights).targets
        for p, report in zip(alone, reports):
            digest_loss, _ = nn.distill_loss(report.scores, targets)
            rng = rng_stream(cfg.seed, p.id, "digest", j)
            member = nn.Member(p.net, public.features[selection.indices], targets, rng)
            nn.train_distill([member], cfg.digest_epochs, cfg.digest_batch_size, cfg.lr)
            rng = rng_stream(cfg.seed, p.id, "revisit", j)
            member = nn.Member(p.net, p.private.features, p.private.labels, rng)
            (revisit,) = nn.train_supervised([member], cfg.revisit_epochs, cfg.revisit_batch_size, cfg.lr)
            expected.append((j, p.id, nn.accuracy(p.net, test), digest_loss, revisit.epoch_losses[-1]))
    assert [(r.round, r.party, r.accuracy, r.digest_loss, r.revisit_loss) for r in rows] == expected
    for p, ref in zip(parties, alone):
        assert all(np.array_equal(a, b) for a, b in zip(p.net.parameters(), ref.net.parameters()))


def test_digest_trains_each_party_on_the_frames_it_received():
    # a server may send parties unequal subsets or consensus: no party's frames may reach another
    cfg, parties, public, test = small_world(3, rounds=1, max_epochs=2, subset_size=20)
    alone = [protocol.PartyState(p.id, p.net.copy(), p.private) for p in parties]
    streams = (1, 2, 1)  # parties 0 and 2 get one subset, party 1 another
    selections = [select_subset(public.n, 20, rng_stream(cfg.seed, "subset", s), 1) for s in streams]
    reports = [compute_scores(p, public, s) for p, s in zip(parties, selections)]
    targets = [reports[0].scores.copy(), reports[0].scores.copy(), reports[2].scores.copy()]
    consensus = [transport.ConsensusBroadcast(1, y) for y in targets]
    losses = protocol._digest_and_revisit(parties, public, cfg, selections, reports, consensus)
    for ref, party in zip(alone, parties):
        x = public.features[selections[ref.id].indices]
        member = nn.Member(ref.net, x, targets[ref.id], rng_stream(cfg.seed, ref.id, "digest", 1))
        nn.train_distill([member], cfg.digest_epochs, cfg.digest_batch_size, cfg.lr)
        rng = rng_stream(cfg.seed, ref.id, "revisit", 1)
        member = nn.Member(ref.net, ref.private.features, ref.private.labels, rng)
        (revisit,) = nn.train_supervised([member], cfg.revisit_epochs, cfg.revisit_batch_size, cfg.lr)
        assert losses[ref.id][1] == revisit.epoch_losses[-1]
        assert all(np.array_equal(a, b) for a, b in zip(party.net.parameters(), ref.net.parameters()))


@pytest.mark.parametrize(
    "step, failure, message",
    [
        ("train_distill", "member", r"^party 1 round 1: digest failed: poisoned$"),
        ("train_supervised", "member", r"^party 1 round 1: revisit failed: poisoned$"),
        ("train_distill", "group", r"^parties 0, 1, 2 round 1: digest failed: boom$"),
        ("train_supervised", "group", r"^parties 0, 1, 2 round 1: revisit failed: boom$"),
    ],
)
def test_grouped_round_failure_names_the_member_or_the_group(monkeypatch, step, failure, message):
    cfg, parties, public, test = small_world(3, rounds=1, max_epochs=2)
    if failure == "member":
        failing = diverging_member(parties[1].net, getattr(nn, step))
    else:
        def failing(members, *args):
            raise ValueError("boom")
    monkeypatch.setattr(nn, step, failing)
    with pytest.raises(ProtocolError, match=message):
        rounds_over_bus(parties, public, test, cfg)


@pytest.mark.parametrize("fail", [False, True], ids=["clean", "failing-digest"])
def test_party_loop_closes_every_party_end(monkeypatch, fail):
    cfg, parties, public, test = small_world(3, rounds=1, max_epochs=2)
    pairs, inner = [], transport.bus_pair

    def recording_pair(**kw):
        pairs.append(inner(**kw))
        return pairs[-1]

    monkeypatch.setattr(transport, "bus_pair", recording_pair)
    if fail:
        monkeypatch.setattr(nn, "train_distill", diverging_member(parties[1].net, nn.train_distill))
        with pytest.raises(ProtocolError, match=r"^party 1 round 1: digest failed: poisoned$"):
            rounds_over_bus(parties, public, test, cfg)
    else:
        rounds_over_bus(parties, public, test, cfg)
    assert len(pairs) == 3
    for _, party_end in pairs:
        with pytest.raises(ChannelError, match="closed"):
            party_end.send(transport.RoundComplete(1))


def test_config_weight_renormalization():
    cfg = CollaborationConfig(parties=2, rounds=0, weights=(2.0, 6.0))
    assert cfg.weights == (0.25, 0.75)
    assert abs(sum(cfg.weights) - 1.0) <= 1e-9


# --- hello handshake ------------------------------------------------------------------


def hello(party, rnd=0):
    return transport.ScoreReport(rnd, party, np.zeros((0, 3), dtype=np.float32))


def bad_version(tag, rnd=1):
    """The raw bytes of a frame of kind ``tag`` for round ``rnd`` that declares protocol version 7."""
    return struct.pack(">IBII", 9, tag, 7, rnd)


def put(chan, frame):
    """Send a message, or write raw bytes as they are."""
    if isinstance(frame, bytes):
        chan._sock.sendall(frame)
    else:
        chan.send(frame)


def handshake(frames, m):
    """server_loop for no rounds over one bus pair per frame, each party end having sent (or written) its frame."""
    pairs = [transport.bus_pair(timeout=5.0) for _ in frames]
    try:
        for (_, party_end), frame in zip(pairs, frames):
            put(party_end, frame)
        server_loop([server_end for server_end, _ in pairs], small_cfg(m, rounds=0), 10, 3)
    finally:
        for _, party_end in pairs:
            party_end.close()


def test_server_loop_keys_channels_by_hello():
    """``server_loop`` accepts the parties: each end is keyed to the party its hello names."""
    cfg = small_cfg(2, rounds=1, subset_size=4)
    pairs = [transport.bus_pair(timeout=5.0) for _ in range(2)]
    for (_, party_end), k in zip(pairs, (1, 0)):  # listed in the reverse of id order
        for frame in (hello(k), scores_of(k, 4), transport.RoundComplete(1)):
            party_end.send(frame)
    # a channel keyed to the wrong party would deliver the scores of another
    server_loop([server_end for server_end, _ in pairs], cfg, 10, 3)
    try:
        for _, party_end in pairs:
            assert isinstance(party_end.recv(), transport.SubsetAnnouncement)
            assert isinstance(party_end.recv(), transport.ConsensusBroadcast)
            with pytest.raises(ChannelError, match="closed"):
                party_end.recv()
    finally:
        for _, party_end in pairs:
            party_end.close()


@pytest.mark.parametrize(
    "frames, message",
    [
        ([hello(0), transport.RoundComplete(0)], "hello"),
        ([hello(0, rnd=1), hello(1)], "hello"),
        ([hello(1), hello(1)], "party 1"),
        ([hello(0), hello(2)], "party 2"),
        ([hello(0)], "joined"),
        ([hello(0), transport.ScoreReport(0, 1, np.zeros((2, 3), dtype=np.float32))], "hello"),
        (
            [hello(0), transport.ScoreReport(0, 1, np.zeros((0, 2), dtype=np.float32))],
            r"party 1 round 0: hello of shape \(0, 2\)",
        ),
        ([bad_version(0x01, rnd=0), hello(1)], r"^party \? round 0: undecodable hello: protocol version 7"),
    ],
    ids=[
        "not-a-score-report",
        "not-round-0",
        "duplicate-id",
        "id-out-of-range",
        "too-few",
        "non-empty-scores",
        "wrong-class-count",
        "undecodable",
    ],
)
def test_server_loop_rejects_bad_hellos(frames, message):
    """``server_loop`` accepts the parties only on exactly one good hello from each of 0..m-1."""
    with pytest.raises(ProtocolError, match=message):
        handshake(frames, 2)


@pytest.mark.parametrize("make_pair", [transport.bus_pair, loopback_pair], ids=["bus", "tcp"])
def test_server_loop_closes_every_end_on_rejection(make_pair):
    timeout = 5.0
    pairs = [make_pair(timeout) for _ in range(3)]
    for (_, party_end), frame in zip(pairs, (hello(3), hello(1), hello(2))):  # the first-listed is bad
        party_end.send(frame)
    t0 = time.perf_counter()
    with pytest.raises(ProtocolError, match=r"party 3 round 0: hello from outside 0\.\.2"):
        server_loop([server_end for server_end, _ in pairs], small_cfg(3, rounds=1), 10, 3)
    try:
        for _, party_end in pairs:  # EOF or a reset, and none of them waits for the timeout
            with pytest.raises(ChannelError, match="^peer closed the channel$"):
                party_end.recv()
        assert time.perf_counter() - t0 < timeout / 10
    finally:
        for _, party_end in pairs:
            party_end.close()


class SendFails:
    """A channel end that delivers ``frames`` and fails every send, as a reset connection does."""

    def __init__(self, *frames):
        self.frames = list(frames)

    def recv(self):
        return self.frames.pop(0)

    def send(self, msg):
        raise ChannelError("send failed: boom")

    def close(self):
        pass


def test_a_failed_send_names_its_party_round_and_frame():
    cfg, parties, public, test = small_world(1, rounds=1)
    with pytest.raises(ChannelError, match=r"^party 0 round 0: hello: send failed: boom$"):
        party_loop(parties, public, test, cfg, {0: SendFails()})
    with pytest.raises(ChannelError, match=r"^party 0 round 1: subset: send failed: boom$"):
        server_loop([SendFails(hello(0))], cfg, 10, 3)


# --- frames from a faulty peer --------------------------------------------------------


def scores_of(party, rows, fill=0.0, cols=3):
    return transport.ScoreReport(1, party, np.full((rows, cols), fill, dtype=np.float32))


def drive_round(side, frames):
    """One round of server_loop or party_loop over bus pairs whose peer ends hold ``frames``.

    Server side: ``frames[k]`` is what party k sends after its hello. Party
    side: ``frames`` is what the server sends to the one party of
    ``small_world``, which has 120 public samples and subsets of 64. A frame
    given as bytes is written raw.
    """
    if side == "server":
        cfg = small_cfg(len(frames), rounds=1, subset_size=4)
        pairs = [transport.bus_pair(timeout=5.0) for _ in frames]
        try:
            for k, ((_, party_end), sent) in enumerate(zip(pairs, frames)):
                for frame in [hello(k)] + sent + [transport.RoundComplete(1)]:
                    put(party_end, frame)
            server_loop([server_end for server_end, _ in pairs], cfg, 10, 3)
        finally:
            for _, party_end in pairs:
                party_end.close()
    else:
        cfg, parties, public, test = small_world(1, rounds=1)
        server_end, party_end = transport.bus_pair(timeout=5.0)
        try:
            for frame in frames:
                put(server_end, frame)
            party_loop(parties[:1], public, test, cfg, {0: party_end})
        finally:
            server_end.close()


@pytest.mark.parametrize(
    "side, frames, message",
    [
        ("server", [[scores_of(0, 4)], [scores_of(1, 4, np.nan)]], "party 1 round 1: non-finite scores"),
        ("server", [[scores_of(0, 3)]], r"party 0 round 1: scores of shape \(3, 3\)"),
        (
            "server",
            [[scores_of(0, 4)], [scores_of(1, 4, cols=2)]],
            r"party 1 round 1: scores of shape \(4, 2\)",
        ),
        ("server", [[scores_of(0, 4, cols=2)]], r"party 0 round 1: scores of shape \(4, 2\)"),
        (
            "party",
            [
                transport.SubsetAnnouncement(1, np.arange(64)),
                transport.ConsensusBroadcast(1, np.full((64, 3), np.inf, dtype=np.float32)),
            ],
            "party 0 round 1: non-finite consensus",
        ),
        ("party", [transport.SubsetAnnouncement(1, np.arange(57, 121))], "party 0 round 1: subset index 120"),
        ("server", [[scores_of(0, 4)], [bad_version(0x01)]], "^party 1 round 1: undecodable scores: "),
        ("party", [bad_version(0x03)], "^party 0 round 1: undecodable subset: "),
        (
            "server",
            [[scores_of(0, 4)], [scores_of(0, 4)]],
            "party 1 round 1: its channel delivered the scores of party 0",
        ),
    ],
    ids=[
        "non-finite-scores",
        "short-scores",
        "narrow-scores-among-parties",
        "narrow-scores-single-party",
        "non-finite-consensus",
        "subset-index-out-of-range",
        "undecodable-scores",
        "undecodable-subset",
        "scores-of-another-party",
    ],
)
def test_bad_frame_from_peer_names_party_and_round(side, frames, message):
    with np.errstate(all="ignore"), pytest.raises(ProtocolError, match=message):
        drive_round(side, frames)
