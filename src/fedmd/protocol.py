"""The collaboration state machine.

Every party first runs the transfer-learning prologue (public data to
convergence, then its own private data); the resulting test accuracy is its
baseline. The in-process parties run it in lockstep groups that step every
member's network together (``nn.train_to_convergence``), before the rounds
start. Then, for each round: the server picks a public subset and
announces it; every party sends raw class scores on that subset; the server
aggregates them into weighted-average consensus targets and broadcasts them;
every party digests the consensus (score-matching descent) and then revisits
its private data for a few supervised epochs, again in lockstep groups
(``nn.train_distill``, ``nn.train_supervised``). Test accuracy is recorded
after the revisit.

The round loop runs over ``TcpChannel`` ends (in-process socketpairs or TCP),
so simulation and networked runs share one code path: one call per side.
``server_loop`` reads every hello and drives the rounds, for the in-process
run on one thread of its own and for ``fedmd serve`` on its main thread.
Lockstep rounds leave no compute to overlap, so one ``party_loop`` on the
caller's thread serves every in-process party; ``fedmd join`` runs the same
loop for its one party, a group of one. Each loop closes every channel it
was given when it returns or raises, so no side waits on a peer that gave
up. The wire messages of ``transport`` are the round's data types: a subset
is a ``SubsetAnnouncement``, a party's scores a ``ScoreReport`` and the
consensus a ``ConsensusBroadcast``, from the moment they are made to the
moment they are used. ``expect`` checks each one once, where it is received.
"""

import math
import threading
import time
import zlib
from dataclasses import dataclass

import numpy as np

from . import nn, transport
from .data import Dataset
from .errors import ChannelError, ConfigError, DivergenceError, ProtocolError, ShapeError
from .metrics import BASELINE, MetricsLog, MetricsRow
from .nn import AdamParams, Network, TrainReport
from .transport import ConsensusBroadcast, RoundComplete, ScoreReport, SubsetAnnouncement


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
    """All protocol hyperparameters, checked when built (``replace`` included).

    An invalid value raises ``ConfigError``. ``weights`` is stored summing to 1:
    uniform when given as None, rescaled otherwise.
    """

    parties: int
    rounds: int
    subset_size: int = 5000
    weights: "tuple[float, ...] | None" = None  # None = uniform 1/m
    digest_epochs: int = 1
    digest_batch_size: int = 256
    revisit_epochs: int = 2
    revisit_batch_size: int = 32  # applied as min(revisit_batch_size, N_k)
    lr: float = 0.001
    max_epochs: int = 100
    patience: int = 5
    min_improvement: float = 0.001  # 0.1 percentage point
    transfer_batch_size: int = 32
    val_fraction: float = 0.1
    distill: str = "mae"
    seed: int = 0

    def __post_init__(self) -> None:
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
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be finite and positive, got {self.lr}")
        if not self.min_improvement >= 0:
            raise ConfigError(f"min_improvement must be >= 0, got {self.min_improvement}")
        if self.distill not in nn.DISTILL_LOSSES:
            raise ConfigError(f"distill must be one of {nn.DISTILL_LOSSES}, got {self.distill!r}")
        weights = (1.0,) * self.parties if self.weights is None else tuple(map(float, self.weights))
        if len(weights) != self.parties:
            raise ConfigError(f"{len(weights)} weights for {self.parties} parties")
        if not all(0 <= w < math.inf for w in weights):
            raise ConfigError("consensus weights must be finite and non-negative")
        total = sum(weights)
        if total <= 0:
            raise ConfigError("consensus weights must not all be zero")
        if abs(total - 1.0) > 1e-9:  # renormalize, but stay idempotent
            weights = tuple(w / total for w in weights)
        object.__setattr__(self, "weights", weights)

    @property
    def opt(self) -> AdamParams:
        return AdamParams(lr=self.lr)


@dataclass
class PartyState:
    """One participant: its id, its model and its private data.

    The optimizer settings and the master seed are the run's, in
    ``CollaborationConfig``; the party's id names all of its RNG streams,
    ``rng_stream(cfg.seed, party.id, …)``. Single-owner mutable: only the
    thread that runs its prologue and its ``party_loop`` trains it.
    """

    id: int
    net: Network
    private: Dataset
    pretrained: "Network | None" = None  # copy of ``net`` after the public phase


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
    return PartyState(party_id, net, private)


def lockstep_groups(parties: list[PartyState]) -> list[list[PartyState]]:
    """The parties in groups that can train in lockstep, in first-seen order.

    A group shares its private row count and dtype; the public phase gives
    every party the same row count, and every party trains with the run's
    optimizer settings.
    """
    groups = {}
    for p in parties:
        groups.setdefault((p.private.n, p.net.layers[0].weight.dtype), []).append(p)
    return list(groups.values())


def pretrain_public(group: list[PartyState], public: Dataset, cfg: CollaborationConfig) -> list[TrainReport]:
    """Train a lockstep group to convergence on public data, each party monitored on its own held-out slice."""
    n_val = int(public.n * cfg.val_fraction)
    members = []
    for party in group:
        rows, val = None, public
        if 0 < n_val < public.n:
            perm = rng_stream(cfg.seed, party.id, "holdout").permutation(public.n)
            rows, val = perm[n_val:], public.take(perm[:n_val])
        rng = rng_stream(cfg.seed, party.id, "transfer-public")
        members.append(nn.Member(party.net, public.features, public.labels, rng, rows, val))
    return nn.train_to_convergence(
        members, cfg.transfer_batch_size, cfg.opt, cfg.max_epochs, cfg.patience, cfg.min_improvement
    )


def fit_private(group: list[PartyState], cfg: CollaborationConfig) -> list[TrainReport]:
    """Train a lockstep group to convergence on each party's private data, monitored on that set itself."""
    members = []
    for p in group:
        rng = rng_stream(cfg.seed, p.id, "transfer-private")
        members.append(nn.Member(p.net, p.private.features, p.private.labels, rng, val=p.private))
    return nn.train_to_convergence(
        members, cfg.transfer_batch_size, cfg.opt, cfg.max_epochs, cfg.patience, cfg.min_improvement
    )


def transfer_learn(
    group: list[PartyState], public: Dataset, cfg: CollaborationConfig
) -> list[tuple[TrainReport, TrainReport]]:
    """``pretrain_public``, then ``fit_private``; returns each party's two reports.

    A copy of each post-public network is kept as ``party.pretrained``, so the
    pooled baseline can continue from it instead of repeating the public phase.
    """
    public_reports = pretrain_public(group, public, cfg)
    for party in group:
        party.pretrained = party.net.copy()
    return list(zip(public_reports, fit_private(group, cfg)))


def _blame(group: list[PartyState], exc: Exception) -> str:
    """Who a lockstep group's failure names: the member that diverged, a lone member, else the whole group."""
    if isinstance(exc, DivergenceError):
        return f"party {group[exc.member].id}"
    ids = ", ".join(str(p.id) for p in group)
    return f"party {ids}" if len(group) == 1 else f"parties {ids}"


def fit_and_measure(parties: list[PartyState], fit, test: Dataset, kind: str) -> list[MetricsRow]:
    """``fit(group)`` for each lockstep group, then every party's test accuracy, as ``kind`` rows.

    A row's ``wall_ms`` is its group's elapsed time split evenly among the
    group, so the rows sum to the time of the whole phase.
    """
    rows = {}
    for group in lockstep_groups(parties):
        t0 = time.perf_counter()
        fit(group)
        accs = [nn.accuracy(p.net, test) for p in group]
        wall_ms = (time.perf_counter() - t0) * 1000.0 / len(group)
        rows.update((p.id, MetricsRow(kind, p.id, acc, None, None, wall_ms)) for p, acc in zip(group, accs))
    return [rows[p.id] for p in parties]


def prologue(
    parties: list[PartyState], public: Dataset, test: Dataset, cfg: CollaborationConfig
) -> list[MetricsRow]:
    """Transfer-learn the parties in lockstep groups and measure each one's baseline test accuracy.

    Runs on the caller's thread. Any failure of a group's training is a
    ``ProtocolError``: ``party K failed during transfer: …`` for the party
    whose training diverged or when the group is K alone, else
    ``parties K, L, … failed during transfer: …`` naming the whole group.
    """

    def transfer(group):
        try:
            transfer_learn(group, public, cfg)
        except Exception as exc:
            raise ProtocolError(f"{_blame(group, exc)} failed during transfer: {exc}") from exc

    return fit_and_measure(parties, transfer, test, BASELINE)


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


def _digest_and_revisit(group: list[PartyState], public: Dataset, cfg: CollaborationConfig, selections, consensus):
    """Digest each party's consensus, then revisit its private data, as one lockstep group; returns the revisit reports.

    Members whose subset and consensus frames hold the first member's bits (an
    honest server sends every party the same) share one inputs and one targets
    array. A failure reads ``party K round J: digest failed: …`` (or ``revisit
    failed``), naming the member that diverged or a lone member, else ``parties K, L, …``.
    """
    head = group[0].id
    j, first, targets = selections[head].round, selections[head].indices, consensus[head].targets
    inputs, digest = public.features[first], []
    for p in group:
        x, y = selections[p.id].indices, consensus[p.id].targets
        x = inputs if np.array_equal(x, first) else public.features[x]
        y = targets if np.array_equal(y.view(np.uint8), targets.view(np.uint8)) else y
        digest.append(nn.Member(p.net, x, y, rng_stream(cfg.seed, p.id, "digest", j)))
    try:
        nn.train_distill(digest, cfg.digest_epochs, cfg.digest_batch_size, cfg.opt, cfg.distill)
    except Exception as exc:
        raise ProtocolError(f"{_blame(group, exc)} round {j}: digest failed: {exc}") from exc
    revisit = [
        nn.Member(p.net, p.private.features, p.private.labels, rng_stream(cfg.seed, p.id, "revisit", j))
        for p in group
    ]
    try:
        return nn.train_supervised(revisit, cfg.revisit_epochs, cfg.revisit_batch_size, cfg.opt)
    except Exception as exc:
        raise ProtocolError(f"{_blame(group, exc)} round {j}: revisit failed: {exc}") from exc


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


def server_loop(channels, cfg: CollaborationConfig, n0: int, num_classes: int) -> None:
    """Read every party's hello, then drive P rounds; closes every server end it was given.

    ``channels`` yields the server ends: bus socketpair ends, or TCP
    connections accepted one by one. Every end is taken before the first
    hello is read, and every end is closed when this returns or raises, so no
    party waits on a server that gave up. A hello is an empty 0 x
    ``num_classes`` score report for round 0; the ids must be exactly 0..m-1.
    The aggregate step is a barrier: it blocks until every party's score
    report for the round, subset rows by ``num_classes`` columns, has arrived.
    """
    m = cfg.parties
    ends = []
    try:
        for chan in channels:  # one at a time, so a failed accept still closes the ends before it
            ends.append(chan)
        keyed = {}
        for chan in ends:
            k = expect(chan, ScoreReport, 0, None, (0, num_classes)).party
            if not 0 <= k < m:
                raise ProtocolError(f"party {k} round 0: hello from outside 0..{m - 1}")
            if k in keyed:
                raise ProtocolError(f"party {k} round 0: two hellos")
            keyed[k] = chan
        if len(keyed) != m:
            raise ProtocolError(f"parties {sorted(keyed)} joined, expected 0..{m - 1}")
        by_id = [keyed[k] for k in range(m)]
        subset_size = min(cfg.subset_size, n0)
        for j in range(1, cfg.rounds + 1):
            selection = select_subset(n0, subset_size, rng_stream(cfg.seed, "subset", j), j)
            for chan in by_id:
                chan.send(selection)
            reports = [
                expect(chan, ScoreReport, j, k, (subset_size, num_classes)) for k, chan in enumerate(by_id)
            ]
            consensus = aggregate(reports, cfg.weights)
            for chan in by_id:
                chan.send(consensus)
            for k, chan in enumerate(by_id):
                expect(chan, RoundComplete, j, k)
    finally:
        for chan in ends:
            chan.close()


def party_loop(
    parties: list[PartyState],
    public: Dataset,
    test: Dataset,
    cfg: CollaborationConfig,
    channels: "dict[int, object]",
) -> list[MetricsRow]:
    """Follow the server through P rounds for every party, each on its own channel (keyed by party id).

    Each party starts with a hello frame (an empty 0xC score report for round
    0) so the server can map its channel to it before round 1. Returns the
    round rows in round, then party order, and closes every channel given
    when it returns or raises, which releases a server still waiting on a
    party. A failure that is neither a ``ProtocolError`` nor a
    ``ChannelError`` raises ``ProtocolError`` ``party K failed during
    rounds: …`` for the party being served.
    """
    # Ordering rule: a stream channel may buffer less than one frame, so a send
    # can block until the peer reads it. Serve the parties in ascending id, the
    # order server_loop uses, and receive every party's frame of a phase before
    # sending any frame of the next phase: all subsets, then all scores, then
    # all consensus frames, then the grouped rounds, then every completion frame
    # in ascending id. Breaking either half can leave both ends blocked.
    parties = sorted(parties, key=lambda p: p.id)
    groups = lockstep_groups(parties)
    subset_size = min(cfg.subset_size, public.n)
    metrics = []
    try:
        for party in parties:
            hello = ScoreReport(0, party.id, np.zeros((0, party.net.output_dim), dtype=np.float32))
            channels[party.id].send(hello)
        for j in range(1, cfg.rounds + 1):
            selections, reports, consensus, rows = {}, {}, {}, {}
            for party in parties:
                chan = channels[party.id]
                selections[party.id] = expect(chan, SubsetAnnouncement, j, party.id, (subset_size,), public.n)
            for party in parties:
                try:
                    reports[party.id] = compute_scores(party, public, selections[party.id])
                except Exception as exc:
                    raise ProtocolError(f"party {party.id} round {j}: communicate failed: {exc}") from exc
                channels[party.id].send(reports[party.id])
            for party in parties:
                shape = reports[party.id].scores.shape
                consensus[party.id] = expect(channels[party.id], ConsensusBroadcast, j, party.id, shape)
            # a row's wall_ms is its group's time split evenly; ``party`` names a failed loss or evaluation
            for group in groups:
                t0 = time.perf_counter()
                digest_losses = []
                for party in group:
                    scores, targets = reports[party.id].scores, consensus[party.id].targets
                    digest_losses.append(nn.distill_loss(scores, targets, cfg.distill)[0])
                revisits = _digest_and_revisit(group, public, cfg, selections, consensus)
                accs = []
                for party in group:
                    accs.append(nn.accuracy(party.net, test))
                wall_ms = (time.perf_counter() - t0) * 1000.0 / len(group)
                for party, digest_loss, revisit, acc in zip(group, digest_losses, revisits, accs):
                    revisit_loss = revisit.epoch_losses[-1] if revisit.epoch_losses else None
                    rows[party.id] = MetricsRow(j, party.id, acc, digest_loss, revisit_loss, wall_ms)
            for party in parties:
                metrics.append(rows[party.id])
                channels[party.id].send(RoundComplete(j))
    except (ProtocolError, ChannelError):
        raise
    except Exception as exc:  # ``party`` is the one being served when it was raised
        raise ProtocolError(f"party {party.id} failed during rounds: {exc}") from exc
    finally:
        for chan in channels.values():
            chan.close()
    return metrics


def run_fedmd(
    cfg: CollaborationConfig,
    parties: list[PartyState],
    public: Dataset,
    test: Dataset,
    transport_kind: str = "bus",
    after_transfer=None,
) -> MetricsLog:
    """Transfer-learning prologue for every party, then P collaboration rounds.

    ``transport_kind`` selects what the channels run over ("bus": in-process
    socketpairs, "tcp": 127.0.0.1); results are independent of the choice.
    The prologue, the hooks and every party's rounds (``party_loop``) run on
    the caller's thread; the server (``server_loop``) runs on one
    ``fedmd-server`` thread, joined before this returns or raises.
    ``after_transfer`` is an optional hook called with each party, in list
    order, between the baseline measurements and the first round; a failure
    raises ``ProtocolError`` ``party K failed after transfer: …``.
    """
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
        if p.net.output_dim != test.num_classes:
            raise ShapeError(
                f"party {p.id} output dim {p.net.output_dim} does not match {test.num_classes} test classes"
            )
        if p.private.n == 0:
            raise ConfigError(f"party {p.id} has an empty private dataset")
    if public.n < 1:
        raise ConfigError("public dataset is empty")
    if test.dim != public.dim:
        raise ShapeError(f"test feature dim {test.dim} does not match public dim {public.dim}")
    if transport_kind not in ("bus", "tcp"):
        raise ConfigError(f"unknown transport {transport_kind!r}")
    baselines = prologue(parties, public, test, cfg)
    if after_transfer is not None:
        for p in parties:
            try:
                after_transfer(p)
            except Exception as exc:
                raise ProtocolError(f"party {p.id} failed after transfer: {exc}") from exc

    if transport_kind == "bus":
        pairs = [transport.bus_pair() for _ in parties]
        server_ends = [server_end for server_end, _ in pairs]
        party_channels = {p.id: party_end for p, (_, party_end) in zip(parties, pairs)}
    else:
        # every party connects before the first accept, so the backlog must hold them all
        listener = transport.serve(("127.0.0.1", 0), backlog=cfg.parties)
        party_channels, server_ends = {}, []
        try:
            for p in parties:
                party_channels[p.id] = transport.connect(listener.address)
            for _ in parties:
                server_ends.append(listener.accept())
        except BaseException:
            for chan in [*party_channels.values(), *server_ends]:
                chan.close()
            raise
        finally:
            listener.close()

    server_errors = []

    def serve_rounds() -> None:
        try:
            server_loop(server_ends, cfg, public.n, test.num_classes)
        except BaseException as exc:  # raised by run_fedmd after the join
            server_errors.append(exc)

    server = threading.Thread(target=serve_rounds, name="fedmd-server", daemon=True)
    server.start()
    party_error: "BaseException | None" = None
    try:
        rounds = party_loop(parties, public, test, cfg, party_channels)
    except BaseException as exc:
        party_error = exc
    finally:
        server.join()

    # report the root cause: a party-side channel error is only the teardown of a failed server
    if server_errors and (party_error is None or isinstance(party_error, ChannelError)):
        (server_error,) = server_errors
        if isinstance(server_error, ProtocolError):
            raise server_error
        raise ProtocolError(f"server failed: {server_error}") from server_error
    if party_error is not None:
        raise party_error

    log = MetricsLog(seed=cfg.seed)
    log.rows.extend(sorted(baselines, key=lambda m: m.party))
    log.rows.extend(rounds)
    log.validate()
    return log
