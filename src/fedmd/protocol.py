"""The collaboration state machine.

Every party first runs the transfer-learning prologue (public data to
convergence, then its own private data); the resulting test accuracy is its
baseline. Then, for each round: the server picks a public subset and announces
it; every party sends raw class scores on that subset; the server aggregates
them into weighted-average consensus targets and broadcasts them; every party
digests the consensus (score-matching descent) and then revisits its private
data for a few supervised epochs. Test accuracy is recorded after the revisit.

The round loop runs over channels (in-process bus or TCP loopback), one party
per worker thread, so simulation and networked runs share one code path. The
wire messages of ``transport`` are the round's data types: a subset is a
``SubsetAnnouncement``, a party's scores a ``ScoreReport`` and the consensus a
``ConsensusBroadcast``, from the moment they are made to the moment they are
used. ``expect`` checks each one once, where it is received.
"""

import threading
import time
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import nn, transport
from .data import Dataset
from .errors import ChannelError, ConfigError, ProtocolError, ShapeError
from .metrics import BASELINE, MetricsLog, MetricsRow
from .nn import AdamParams, Network, TrainReport
from .transport import ConsensusBroadcast, RoundComplete, ScoreReport, SubsetAnnouncement


# Party compute is single-owner and order-independent, so concurrency buys
# nothing under the GIL; this lock keeps worker threads from convoying on
# numpy micro-ops while channel sends/recvs stay concurrent.
_COMPUTE_LOCK = threading.Lock()


def rng_stream(master_seed: int, *tags) -> np.random.Generator:
    """Independent deterministic RNG stream named by (master seed, tags).

    String tags are folded through crc32 so stream names stay stable across
    platforms and runs.
    """
    ints = [master_seed & 0xFFFFFFFF]
    for t in tags:
        ints.append(zlib.crc32(t.encode()) if isinstance(t, str) else int(t) & 0xFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(ints))


@dataclass(frozen=True)
class CollaborationConfig:
    """All protocol hyperparameters. ``validated()`` returns a normalized copy."""

    parties: int
    rounds: int
    subset_size: int = 5000
    weights: "tuple[float, ...] | None" = None  # None = uniform 1/m
    digest_epochs: int = 1
    digest_batch_size: int = 256
    revisit_epochs: int = 2
    revisit_batch_size: int = 32  # applied as min(revisit_batch_size, N_k)
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    max_epochs: int = 100
    patience: int = 5
    min_improvement: float = 0.001  # 0.1 percentage point
    transfer_batch_size: int = 32
    val_fraction: float = 0.1
    distill: str = "mae"
    seed: int = 0

    def validated(self) -> "CollaborationConfig":
        if self.parties < 1:
            raise ConfigError(f"parties must be >= 1, got {self.parties}")
        if self.rounds < 0:
            raise ConfigError(f"rounds must be >= 0, got {self.rounds}")
        if self.subset_size < 1:
            raise ConfigError(f"subset_size must be >= 1, got {self.subset_size}")
        for name in ("digest_epochs", "revisit_epochs", "max_epochs"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("digest_batch_size", "revisit_batch_size", "transfer_batch_size", "patience"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must lie in [0, 1), got {self.val_fraction}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.distill not in nn.DISTILL_LOSSES:
            raise ConfigError(f"distill must be one of {nn.DISTILL_LOSSES}, got {self.distill!r}")
        weights = self.weights
        if weights is None:
            weights = tuple(1.0 / self.parties for _ in range(self.parties))
        else:
            if len(weights) != self.parties:
                raise ConfigError(f"{len(weights)} weights for {self.parties} parties")
            if any(w < 0 for w in weights):
                raise ConfigError("consensus weights must be non-negative")
            total = sum(weights)
            if total <= 0:
                raise ConfigError("consensus weights must not all be zero")
            if abs(total - 1.0) > 1e-9:  # renormalize, but stay idempotent
                weights = tuple(w / total for w in weights)
            else:
                weights = tuple(weights)
        return replace(self, weights=weights)

    @property
    def opt(self) -> AdamParams:
        return AdamParams(self.lr, self.beta1, self.beta2, self.epsilon)


@dataclass
class PartyState:
    """One participant: its model, private data, optimizer settings and RNG identity.

    Single-owner mutable: exactly one worker may train a party at a time.
    ``stream_key`` defaults to the party id and names all of its RNG streams.
    """

    id: int
    net: Network
    private: Dataset
    opt: AdamParams = field(default_factory=AdamParams)
    master_seed: int = 0
    stream_key: "int | None" = None
    pretrained: "Network | None" = None  # copy of ``net`` after the public phase

    @property
    def key(self) -> int:
        return self.id if self.stream_key is None else self.stream_key

    def stream(self, *tags) -> np.random.Generator:
        return rng_stream(self.master_seed, self.key, *tags)


def make_party(
    party_id: int,
    hidden: tuple[int, ...],
    private: Dataset,
    input_dim: int,
    num_classes: int,
    cfg: CollaborationConfig,
) -> PartyState:
    """Party with a freshly initialized network drawn from its own seed stream."""
    rng = rng_stream(cfg.seed, party_id, "init")
    net = nn.build_network(input_dim, hidden, num_classes, rng)
    return PartyState(party_id, net, private, cfg.opt, cfg.seed)


def pretrain_public(party: PartyState, public: Dataset, cfg: CollaborationConfig) -> TrainReport:
    """Train to convergence on public data, monitored on a held-out slice of it."""
    if public.dim != party.net.input_dim:
        raise ShapeError(
            f"public feature dim {public.dim} does not match party {party.id} "
            f"input dim {party.net.input_dim}"
        )
    n_val = int(public.n * cfg.val_fraction)
    if 0 < n_val < public.n:
        perm = party.stream("holdout").permutation(public.n)
        val = public.take(perm[:n_val])
        train = public.take(perm[n_val:])
    else:
        val = train = public
    return nn.train_to_convergence(
        party.net,
        train,
        val,
        cfg.transfer_batch_size,
        party.opt,
        party.stream("transfer-public"),
        cfg.max_epochs,
        cfg.patience,
        cfg.min_improvement,
    )


def fit_private(party: PartyState, cfg: CollaborationConfig) -> TrainReport:
    """Train to convergence on the party's private data, monitored on that set itself."""
    batch = min(cfg.transfer_batch_size, max(party.private.n, 1))
    return nn.train_to_convergence(
        party.net,
        party.private,
        party.private,
        batch,
        party.opt,
        party.stream("transfer-private"),
        cfg.max_epochs,
        cfg.patience,
        cfg.min_improvement,
    )


def transfer_learn(
    party: PartyState, public: Dataset, cfg: CollaborationConfig
) -> tuple[TrainReport, TrainReport]:
    """``pretrain_public``, then ``fit_private``.

    A copy of the post-public network is kept as ``party.pretrained``, so the
    pooled baseline can continue from it instead of repeating the public phase.
    """
    rep_public = pretrain_public(party, public, cfg)
    party.pretrained = party.net.copy()
    return rep_public, fit_private(party, cfg)


def prologue(party: PartyState, public: Dataset, test: Dataset, cfg: CollaborationConfig) -> MetricsRow:
    """Transfer-learn one party and measure its baseline test accuracy.

    The clock starts once the compute lock is held, so ``wall_ms`` counts this
    party's own work and not the time it waited for other parties.
    """
    with _COMPUTE_LOCK:
        t0 = time.perf_counter()
        transfer_learn(party, public, cfg)
        baseline_acc = nn.accuracy(party.net, test)
        wall_ms = (time.perf_counter() - t0) * 1000.0
    return MetricsRow(BASELINE, party.id, baseline_acc, None, None, wall_ms)


def select_subset(n0: int, subset_size: int, rng: np.random.Generator, round_index: int) -> SubsetAnnouncement:
    """Uniform sample without replacement from the public set."""
    if not 1 <= subset_size <= n0:
        raise ConfigError(f"subset_size {subset_size} outside [1, {n0}]")
    indices = rng.choice(n0, size=subset_size, replace=False)
    return SubsetAnnouncement(round_index, indices.astype(np.int64))


def compute_scores(party: PartyState, public: Dataset, selection: SubsetAnnouncement) -> ScoreReport:
    """Raw logits on the selected public samples, in selection order. No softmax."""
    logits = nn.forward(party.net, public.features[selection.indices])
    return ScoreReport(selection.round, party.id, logits)


def aggregate(reports: list[ScoreReport], weights: "tuple[float, ...] | list[float]") -> ConsensusBroadcast:
    """Weighted elementwise average of score matrices, positionally paired with weights."""
    if len(reports) != len(weights):
        raise ProtocolError(f"{len(reports)} reports vs {len(weights)} weights")
    if not reports:
        raise ProtocolError("nothing to aggregate")
    seen = {}
    for rep in reports:
        if rep.party in seen:
            raise ProtocolError(f"duplicate score report from party {rep.party}")
        seen[rep.party] = rep
    for k in range(len(reports)):
        if k not in seen:
            raise ProtocolError(f"missing score report from party {k}")
    rnd = reports[0].round
    shape = reports[0].scores.shape
    for rep in reports:
        if rep.round != rnd:
            raise ProtocolError(f"party {rep.party} reported round {rep.round}, expected {rnd}")
        if rep.scores.shape != shape:
            raise ProtocolError(
                f"party {rep.party} score shape {rep.scores.shape}, expected {shape}"
            )
    acc = np.zeros(shape, dtype=np.float64)
    for rep, w in zip(reports, weights):
        acc += w * rep.scores.astype(np.float64)
    return ConsensusBroadcast(rnd, acc.astype(np.float32))


def _party_round(
    party: PartyState,
    public: Dataset,
    test: Dataset,
    cfg: CollaborationConfig,
    selection: SubsetAnnouncement,
    scores: ScoreReport,
    consensus: ConsensusBroadcast,
    events: "list | None",
) -> MetricsRow:
    """Digest the consensus, revisit private data, then measure test accuracy."""
    t0 = time.perf_counter()
    j = selection.round
    inputs = public.features[selection.indices]
    digest_loss, _ = nn.distill_loss(scores.scores, consensus.targets, cfg.distill)
    if events is not None:
        events.append(("digest", j, party.id))
    try:
        nn.train_distill(
            party.net,
            inputs,
            consensus.targets,
            cfg.digest_epochs,
            cfg.digest_batch_size,
            party.opt,
            party.stream("digest", j),
            cfg.distill,
        )
    except Exception as exc:
        raise ProtocolError(f"party {party.id} round {j}: digest failed: {exc}") from exc
    if events is not None:
        events.append(("revisit", j, party.id))
    try:
        revisit = nn.train_supervised(
            party.net,
            party.private,
            cfg.revisit_epochs,
            min(cfg.revisit_batch_size, max(party.private.n, 1)),
            party.opt,
            party.stream("revisit", j),
        )
    except Exception as exc:
        raise ProtocolError(f"party {party.id} round {j}: revisit failed: {exc}") from exc
    revisit_loss = revisit.epoch_losses[-1] if revisit.epoch_losses else None
    acc = nn.accuracy(party.net, test)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return MetricsRow(j, party.id, acc, digest_loss, revisit_loss, wall_ms)


# --- channel-driven execution ---------------------------------------------------

# each frame kind's name in error messages, and the field that holds its array
_FRAMES = {
    ScoreReport: ("scores", "scores"),
    ConsensusBroadcast: ("consensus", "targets"),
    SubsetAnnouncement: ("subset", "indices"),
    RoundComplete: ("completion", None),
}


def expect(channel, kind, round: int, party: "int | None", shape=(), below: "int | None" = None):
    """Receive one frame: a ``kind`` for ``round`` whose array has exactly ``shape``.

    A score report must come from ``party``, whose channel carried it (None at
    the hello, before the sender is known). Subset indices must lie below
    ``below``; scores and consensus must be finite. A failure raises
    ``ProtocolError`` starting ``party K round J:``.
    """
    msg = channel.recv()
    what, array_field = ("hello", "scores") if round == 0 else _FRAMES[kind]
    sender = party if party is not None else getattr(msg, "party", "?")
    where = f"party {sender} round {round}:"
    if not isinstance(msg, kind) or msg.round != round:
        raise ProtocolError(f"{where} expected a {what}, got a round-{msg.round} {type(msg).__name__}")
    if party is not None and getattr(msg, "party", party) != party:
        raise ProtocolError(f"{where} its channel delivered the {what} of party {msg.party}")
    if array_field is None:
        return msg
    arr = getattr(msg, array_field)
    if arr.shape != tuple(shape):
        raise ProtocolError(f"{where} {what} of shape {arr.shape}, expected {tuple(shape)}")
    if kind is SubsetAnnouncement:
        if arr.size and arr.max() >= below:
            raise ProtocolError(f"{where} subset index {arr.max()} outside 0..{below - 1}")
    elif not np.isfinite(arr).all():
        raise ProtocolError(f"{where} non-finite {what}")
    return msg


def accept_parties(channels, m: int, num_classes: int) -> "dict[int, object]":
    """Key m server-side channels by the party id in each one's hello frame.

    ``channels`` yields the channels to read (bus endpoints, or TCP
    connections accepted one by one). A hello is an empty 0 x ``num_classes``
    score report for round 0; the ids must be exactly 0..m-1. On any failure
    every channel taken so far is closed, so no party waits on a server that
    gave up.
    """
    keyed = {}
    taken = []
    try:
        for chan in channels:
            taken.append(chan)
            k = expect(chan, ScoreReport, 0, None, (0, num_classes)).party
            if not 0 <= k < m:
                raise ProtocolError(f"party {k} round 0: hello from outside 0..{m - 1}")
            if k in keyed:
                raise ProtocolError(f"party {k} round 0: two hellos")
            keyed[k] = chan
        if len(keyed) != m:
            raise ProtocolError(f"parties {sorted(keyed)} joined, expected 0..{m - 1}")
    except BaseException:
        for chan in taken:
            chan.close()
        raise
    return keyed


def server_loop(
    channels: "dict[int, object]",
    cfg: CollaborationConfig,
    n0: int,
    num_classes: int,
    events: "list | None" = None,
) -> None:
    """Drive P rounds over per-party channels (keyed by party id).

    The aggregate step is a barrier: it blocks until every party's score
    report for the round, subset rows by ``num_classes`` columns, has arrived.
    """
    cfg = cfg.validated()
    subset_size = min(cfg.subset_size, n0)
    for j in range(1, cfg.rounds + 1):
        selection = select_subset(n0, subset_size, rng_stream(cfg.seed, "subset", j), j)
        for k in sorted(channels):
            channels[k].send(selection)
        reports = [
            expect(channels[k], ScoreReport, j, k, (subset_size, num_classes))
            for k in sorted(channels)
        ]
        consensus = aggregate(reports, cfg.weights)
        if events is not None:
            events.append(("aggregate", j))
        for k in sorted(channels):
            channels[k].send(consensus)
        for k in sorted(channels):
            expect(channels[k], RoundComplete, j, k)


def party_loop(
    party: PartyState,
    public: Dataset,
    test: Dataset,
    cfg: CollaborationConfig,
    channel,
    events: "list | None" = None,
) -> list[MetricsRow]:
    """Follow the server through P rounds on one channel.

    Starts with a hello frame (an empty 0xC score report for round 0) so the
    server can map the connection to this party before round 1.
    """
    cfg = cfg.validated()
    channel.send(ScoreReport(0, party.id, np.zeros((0, party.net.output_dim), dtype=np.float32)))
    subset_size = min(cfg.subset_size, public.n)
    metrics = []
    for j in range(1, cfg.rounds + 1):
        selection = expect(channel, SubsetAnnouncement, j, party.id, (subset_size,), public.n)
        try:
            with _COMPUTE_LOCK:
                scores = compute_scores(party, public, selection)
        except Exception as exc:
            raise ProtocolError(f"party {party.id} round {j}: communicate failed: {exc}") from exc
        if events is not None:
            events.append(("scores", j, party.id))
        channel.send(scores)
        consensus = expect(channel, ConsensusBroadcast, j, party.id, scores.scores.shape)
        with _COMPUTE_LOCK:
            metrics.append(
                _party_round(party, public, test, cfg, selection, scores, consensus, events)
            )
        channel.send(RoundComplete(j))
    return metrics


@dataclass
class _WorkerResult:
    baseline: "MetricsRow | None" = None
    rounds: "list[MetricsRow]" = field(default_factory=list)
    error: "BaseException | None" = None
    step: str = "transfer"


def _party_worker(
    party: PartyState,
    public: Dataset,
    test: Dataset,
    cfg: CollaborationConfig,
    channel,
    result: _WorkerResult,
    events: "list | None",
    after_transfer,
) -> None:
    try:
        result.baseline = prologue(party, public, test, cfg)
        if after_transfer is not None:
            after_transfer(party)
        result.step = "rounds"
        result.rounds = party_loop(party, public, test, cfg, channel, events)
    except BaseException as exc:  # surfaced as ProtocolError by the orchestrator
        result.error = exc
    finally:
        channel.close()


def run_fedmd(
    cfg: CollaborationConfig,
    parties: list[PartyState],
    public: Dataset,
    test: Dataset,
    transport_kind: str = "bus",
    addr: "tuple[str, int] | None" = None,
    events: "list | None" = None,
    after_transfer=None,
) -> MetricsLog:
    """Transfer-learning prologue for every party, then P collaboration rounds.

    ``transport_kind`` selects the channel implementation ("bus" in-process,
    "tcp" loopback); results are independent of the choice. ``after_transfer``
    is an optional hook called with each party between its baseline measurement
    and the first round.
    """
    cfg = cfg.validated()
    if len(parties) != cfg.parties:
        raise ConfigError(f"config names {cfg.parties} parties but {len(parties)} were given")
    ids = sorted(p.id for p in parties)
    if ids != list(range(cfg.parties)):
        raise ConfigError(f"party ids must be 0..{cfg.parties - 1}, got {ids}")
    for p in parties:
        if p.net.input_dim != public.dim:
            raise ShapeError(
                f"party {p.id} input dim {p.net.input_dim} does not match public dim {public.dim}"
            )
        if p.private.n == 0:
            raise ConfigError(f"party {p.id} has an empty private dataset")
    if public.n < 1:
        raise ConfigError("public dataset is empty")
    if test.dim != public.dim:
        raise ShapeError(f"test feature dim {test.dim} does not match public dim {public.dim}")

    if transport_kind == "bus":
        pairs = [transport.bus_pair() for _ in parties]
        incoming = [server_end for server_end, _ in pairs]
        party_channels = {p.id: party_end for p, (_, party_end) in zip(parties, pairs)}
        listener = None
    elif transport_kind == "tcp":
        # every party connects before the first accept, so the backlog must hold them all
        listener = transport.serve(addr or ("127.0.0.1", 0), backlog=cfg.parties)
        party_channels = {p.id: transport.connect(listener.address) for p in parties}
        incoming = (listener.accept() for _ in parties)
    else:
        raise ConfigError(f"unknown transport {transport_kind!r}")

    results = {p.id: _WorkerResult() for p in parties}
    threads = []
    for p in parties:
        t = threading.Thread(
            target=_party_worker,
            args=(p, public, test, cfg, party_channels[p.id], results[p.id], events, after_transfer),
            name=f"party-{p.id}",
            daemon=True,
        )
        threads.append(t)
        t.start()

    server_error: "BaseException | None" = None
    server_channels = {}
    try:
        server_channels = accept_parties(incoming, cfg.parties, test.num_classes)
        server_loop(server_channels, cfg, public.n, test.num_classes, events)
    except BaseException as exc:
        server_error = exc
    finally:
        # a failed handshake may leave bus ends unread; closing them releases their parties
        for chan in incoming if listener is None else server_channels.values():
            chan.close()
        if listener is not None:
            listener.close()
    for t in threads:
        t.join()

    # report the root cause: a party whose failure is not a mere channel teardown
    failed = [(k, r) for k, r in sorted(results.items()) if r.error is not None]
    for k, r in failed:
        if not isinstance(r.error, ChannelError):
            if isinstance(r.error, ProtocolError):
                raise r.error
            raise ProtocolError(f"party {k} failed during {r.step}: {r.error}") from r.error
    if server_error is not None:
        if isinstance(server_error, ProtocolError):
            raise server_error
        raise ProtocolError(f"server failed: {server_error}") from server_error
    if failed:
        k, r = failed[0]
        raise ProtocolError(f"party {k} failed during {r.step}: {r.error}") from r.error

    log = MetricsLog(seed=cfg.seed)
    for k in sorted(results):
        log.rows.append(results[k].baseline)
    log.rows.extend(
        sorted((m for r in results.values() for m in r.rounds), key=lambda m: (m.round, m.party))
    )
    log.validate()
    return log
