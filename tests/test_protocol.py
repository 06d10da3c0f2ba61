"""Protocol tests: subset selection, aggregation oracle, rounds, end-to-end runs."""

import threading
import time

import numpy as np
import pytest

from fedmd import nn, transport
from fedmd.data import synth_blobs
from fedmd.errors import ChannelError, ConfigError, ProtocolError, ShapeError
from fedmd.protocol import (
    CollaborationConfig,
    PartyState,
    accept_parties,
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


def small_world(m, seed=0, classes=3, dim=4, per_class=3, public_spread=1.0, **cfg_kw):
    from fedmd.data import PartitionPlan, partition_iid

    cfg = small_cfg(m, rounds=cfg_kw.pop("rounds", 2), seed=seed, **cfg_kw)
    public = synth_blobs(classes, 40, dim, public_spread, seed=seed * 31 + 1)
    pool = synth_blobs(classes, m * per_class + 5, dim, 1.0, seed=seed * 31 + 2)
    test = synth_blobs(classes, 50, dim, 1.0, seed=seed * 31 + 2, sample_stream=1)
    split = partition_iid(pool, PartitionPlan("iid", m, per_class, seed=seed))
    parties = [
        make_party(k, (8,), split.parties[k], dim, classes, cfg) for k in range(m)
    ]
    return cfg, parties, public, test


# --- transfer learning -----------------------------------------------------------


def test_transfer_learn_zero_epochs_keeps_network():
    cfg, parties, public, test = small_world(1, max_epochs=0)
    party = parties[0]
    before = [p.copy() for p in party.net.parameters()]
    rep_pub, rep_priv = transfer_learn(party, public, cfg)
    assert rep_pub.epochs == 0 and rep_priv.epochs == 0
    assert all(np.array_equal(a, b) for a, b in zip(before, party.net.parameters()))


def test_transfer_learn_beats_chance():
    for seed in range(5):
        cfg, parties, public, test = small_world(
            1, seed=seed, classes=3, dim=8, public_spread=2.5, max_epochs=400, patience=100
        )
        transfer_learn(parties[0], public, cfg)
        acc = nn.accuracy(parties[0].net, test)
        assert acc >= 1 / 3 + 0.20, f"seed {seed}: baseline {acc:.3f}"


def test_transfer_learn_identical_parties_identical_baselines():
    results = []
    for _ in range(2):
        cfg, parties, public, test = small_world(1, seed=3)
        transfer_learn(parties[0], public, cfg)
        results.append(nn.accuracy(parties[0].net, test))
    assert results[0] == results[1]


def test_transfer_learn_snapshot_survives_further_training():
    cfg, parties, public, _ = small_world(1)
    party = parties[0]
    transfer_learn(party, public, cfg)
    snapshot = [p.copy() for p in party.pretrained.parameters()]
    nn.train_supervised(party.net, party.private, 3, 4, party.opt, np.random.default_rng(0))
    assert not all(np.array_equal(a, b) for a, b in zip(snapshot, party.net.parameters()))
    assert all(np.array_equal(a, b) for a, b in zip(snapshot, party.pretrained.parameters()))


def test_transfer_learn_dim_mismatch():
    cfg, parties, public, _ = small_world(1)
    bad_public = synth_blobs(3, 10, 9, 1.0, seed=0)
    with pytest.raises(ShapeError):
        transfer_learn(parties[0], bad_public, cfg)


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


def test_select_subset_too_large():
    with pytest.raises(ConfigError):
        select_subset(5, 6, np.random.default_rng(0), 0)


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


def score(party, arr, rnd=1):
    return transport.ScoreReport(rnd, party, np.asarray(arr, dtype=np.float32))


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


def test_aggregate_missing_party_named():
    reports = [score(0, [[1.0]]), score(2, [[2.0]])]
    with pytest.raises(ProtocolError, match="party 1"):
        aggregate(reports, [0.5, 0.5])


def test_aggregate_shape_mismatch():
    with pytest.raises(ProtocolError, match="shape"):
        aggregate([score(0, [[1.0, 2.0]]), score(1, [[1.0]])], [0.5, 0.5])


def test_aggregate_round_mismatch():
    with pytest.raises(ProtocolError, match="round"):
        aggregate([score(0, [[1.0]], rnd=1), score(1, [[1.0]], rnd=2)], [0.5, 0.5])


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


def test_symmetric_parties_get_identical_metrics():
    cfg = small_cfg(2, rounds=2, max_epochs=10)
    public = synth_blobs(3, 40, 4, 1.0, seed=77)
    test = synth_blobs(3, 40, 4, 1.0, seed=78)
    private = synth_blobs(3, 4, 4, 1.0, seed=79)
    net = nn.build_network(4, (8,), 3, rng_stream(0, 0, "init"))
    parties = [
        PartyState(0, net.copy(), private, cfg.opt, cfg.seed, stream_key=0),
        PartyState(1, net.copy(), private, cfg.opt, cfg.seed, stream_key=0),
    ]
    log = run_fedmd(cfg, parties, public, test)
    for j in (1, 2):
        rows = [r for r in log.rows if r.round == j]
        assert rows[0].accuracy == rows[1].accuracy
        assert rows[0].digest_loss == rows[1].digest_loss
        assert rows[0].revisit_loss == rows[1].revisit_loss


def test_run_fedmd_event_ordering_with_threads():
    cfg, parties, public, test = small_world(3, rounds=2, max_epochs=2)
    events = []
    run_fedmd(cfg, parties, public, test, events=events)
    for j in (1, 2):
        agg = events.index(("aggregate", j))
        for k in range(3):
            assert events.index(("scores", j, k)) < agg
            digest = events.index(("digest", j, k))
            revisit = events.index(("revisit", j, k))
            assert agg < digest < revisit


def test_baseline_wall_ms_counts_only_own_compute():
    # the prologues run one at a time, so their compute times fit inside the call
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
    bad = CollaborationConfig(parties=2, rounds=1, weights=(0.5, -0.5))
    with pytest.raises(ConfigError, match="non-negative"):
        run_fedmd(bad, parties, public, test)
    with pytest.raises(ConfigError, match="parties"):
        run_fedmd(small_cfg(3, 1), parties, public, test)


def test_run_fedmd_party_failure_identifies_party_and_step():
    cfg, parties, public, test = small_world(2, rounds=1, max_epochs=2)
    # poison party 1 so its digest diverges
    parties[1].opt = nn.AdamParams(lr=float("nan"))
    with np.errstate(all="ignore"), pytest.raises(ProtocolError, match="party 1"):
        run_fedmd(cfg, parties, public, test)


def test_config_weight_renormalization():
    cfg = CollaborationConfig(parties=2, rounds=0, weights=(2.0, 6.0)).validated()
    assert cfg.weights == (0.25, 0.75)
    assert abs(sum(cfg.weights) - 1.0) <= 1e-9


# --- hello handshake ------------------------------------------------------------------


def hello(party, rnd=0):
    return transport.ScoreReport(rnd, party, np.zeros((0, 3), dtype=np.float32))


def handshake(frames, m):
    """accept_parties over one bus pair per frame, each party end having sent its frame."""
    server_ends = []
    for frame in frames:
        server_end, party_end = transport.bus_pair(timeout=5.0)
        party_end.send(frame)
        server_ends.append(server_end)
    return accept_parties(server_ends, m, 3)


def test_accept_parties_keys_channels_by_hello():
    pairs = [transport.bus_pair(timeout=5.0) for _ in range(2)]
    for (_, party_end), k in zip(pairs, (1, 0)):
        party_end.send(hello(k))
    keyed = accept_parties([server_end for server_end, _ in pairs], 2, 3)
    assert keyed == {1: pairs[0][0], 0: pairs[1][0]}


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
    ],
    ids=[
        "not-a-score-report",
        "not-round-0",
        "duplicate-id",
        "id-out-of-range",
        "too-few",
        "non-empty-scores",
        "wrong-class-count",
    ],
)
def test_accept_parties_rejects_bad_hellos(frames, message):
    with pytest.raises(ProtocolError, match=message):
        handshake(frames, 2)


def test_accept_parties_closes_taken_channels_on_rejection():
    server_end, party_end = transport.bus_pair(timeout=5.0)
    party_end.send(hello(3))
    with pytest.raises(ProtocolError):
        accept_parties([server_end], 2, 3)
    with pytest.raises(ChannelError, match="closed"):
        party_end.recv()


# --- frames from a faulty peer --------------------------------------------------------


def scores_of(party, rows, fill=0.0, cols=3):
    return transport.ScoreReport(1, party, np.full((rows, cols), fill, dtype=np.float32))


def drive_round(side, frames):
    """One round of server_loop or party_loop over bus pairs whose peer ends hold ``frames``.

    Server side: ``frames[k]`` is what party k sends. Party side: ``frames`` is
    what the server sends to the one party of ``small_world``, which has 120
    public samples and subsets of 64.
    """
    if side == "server":
        cfg = small_cfg(len(frames), rounds=1, subset_size=4)
        channels = {}
        for k, sent in enumerate(frames):
            channels[k], party_end = transport.bus_pair(timeout=5.0)
            for frame in sent + [transport.RoundComplete(1)]:
                party_end.send(frame)
        server_loop(channels, cfg, 10, 3)
    else:
        cfg, parties, public, test = small_world(1, rounds=1)
        server_end, party_end = transport.bus_pair(timeout=5.0)
        for frame in frames:
            server_end.send(frame)
        party_loop(parties[0], public, test, cfg, party_end)


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
    ],
    ids=[
        "non-finite-scores",
        "short-scores",
        "narrow-scores-among-parties",
        "narrow-scores-single-party",
        "non-finite-consensus",
        "subset-index-out-of-range",
    ],
)
def test_bad_frame_from_peer_names_party_and_round(side, frames, message):
    with np.errstate(all="ignore"), pytest.raises(ProtocolError, match=message):
        drive_round(side, frames)
