"""The collaboration state machine.

Every party first runs the transfer-learning prologue (public data to
convergence, then its own private data); the resulting test accuracy is its
baseline. Then, for each round: the server picks a public subset and
announces it; every party sends raw class scores on that subset; the server
aggregates them into weighted-average consensus targets and broadcasts them;
every party digests the consensus (score-matching descent) and then revisits
its private data for a few supervised epochs. Test accuracy is recorded after
the revisit. Each training phase is one ``nn`` call over every party, which
``fit_and_measure`` runs, times and turns into metrics rows; ``nn`` steps
together the members that share a row count and dtype.

The round loop runs over ``TcpChannel`` ends (in-process socketpairs or TCP),
so simulation and networked runs share one code path: one call per side.
``server_loop`` reads every hello and drives the rounds, for the in-process
run as the one job of an executor, on a ``fedmd-server_0`` thread, and for
``fedmd serve`` on its main thread.
Lockstep rounds leave no compute to overlap, so one ``party_loop`` on the
caller's thread serves every in-process party. ``run_fedmd`` runs the
prologue for every party, then that loop; ``fedmd join`` does the same for
its one. Each loop closes every channel it was given when it returns or
raises, so no side waits on a peer that gave up. The wire messages
of ``transport`` are the round's data types: a subset is a
``SubsetAnnouncement``, a party's scores a ``ScoreReport`` and the consensus a
``ConsensusBroadcast``, from the moment they are made to the moment they are
used. ``expect`` checks each one once, where it is received. Each failure is
named where it happens: ``expect`` names a frame that does not decode or
breaks the protocol, and ``_failing`` a training, evaluation or scoring call.
"""

import math
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import nn, transport
from .data import Dataset
from .errors import ChannelError, CodecError, ConfigError, DivergenceError, ProtocolError, ShapeError
from .metrics import BASELINE, MetricsLog, MetricsRow
from .nn import AdamParams, Network, TrainReport
from .transport import ConsensusBroadcast, RoundComplete, ScoreReport, SubsetAnnouncement


def rng_stream(master_seed: int, *tags) -> np.random.Generator:
    """Independent deterministic RNG stream named by (master seed, tags).

    String tags are folded through crc32 so stream names stay stable across
    platforms and runs.
    """
    ints = [master_seed]
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
        if not 0 <= self.seed <= 0xFFFFFFFF:
            raise ConfigError(f"seed must lie in 0..4294967295, got {self.seed}")
        if not self.min_improvement >= 0:
            raise ConfigError(f"min_improvement must be >= 0, got {self.min_improvement}")
        weights = (1.0,) * self.parties if self.weights is None else tuple(map(float, self.weights))
        if len(weights) != self.parties:
            raise ConfigError(f"{len(weights)} weights for {self.parties} parties")
        if not all(0 <= w < math.inf for w in weights):
            raise ConfigError("consensus weights must be finite and non-negative")
        total = sum(weights)
        if total <= 0:
            raise ConfigError("consensus weights must not all be zero")
        if total == math.inf:  # finite weights that overflow would all rescale to 0
            raise ConfigError("consensus weights must have a finite sum")
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
    transferred: "Network | None" = None  # copy of ``net`` after the whole prologue


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


def pretrain_public(parties: list[PartyState], public: Dataset, cfg: CollaborationConfig) -> list[TrainReport]:
    """Train the parties to convergence on public data in one call, each monitored on its own held-out slice."""
    n_val = int(public.n * cfg.val_fraction)
    members = []
    for party in parties:
        rows, val = None, public
        if 0 < n_val < public.n:
            perm = rng_stream(cfg.seed, party.id, "holdout").permutation(public.n)
            rows, val = perm[n_val:], public.take(perm[:n_val])
        rng = rng_stream(cfg.seed, party.id, "transfer-public")
        members.append(nn.Member(party.net, public.features, public.labels, rng, rows, val))
    return nn.train_to_convergence(
        members, cfg.transfer_batch_size, cfg.opt, cfg.max_epochs, cfg.patience, cfg.min_improvement
    )


def fit_private(parties: list[PartyState], cfg: CollaborationConfig) -> list[TrainReport]:
    """Train the parties to convergence on their own private data in one call, each monitored on that set itself."""
    members = []
    for p in parties:
        rng = rng_stream(cfg.seed, p.id, "transfer-private")
        members.append(nn.Member(p.net, p.private.features, p.private.labels, rng, val=p.private))
    return nn.train_to_convergence(
        members, cfg.transfer_batch_size, cfg.opt, cfg.max_epochs, cfg.patience, cfg.min_improvement
    )


def transfer_learn(
    parties: list[PartyState], public: Dataset, cfg: CollaborationConfig
) -> list[tuple[TrainReport, TrainReport]]:
    """``pretrain_public``, then ``fit_private``; returns each party's two reports.

    A copy of each post-public network is kept as ``party.pretrained``, so the
    pooled baseline can continue from it instead of repeating the public phase,
    and a copy of each final one as ``party.transferred``, so a caller can
    measure the network the rounds started from after the rounds have run.
    """
    public_reports = pretrain_public(parties, public, cfg)
    for party in parties:
        party.pretrained = party.net.copy()
    private_reports = fit_private(parties, cfg)
    for party in parties:
        party.transferred = party.net.copy()
    return list(zip(public_reports, private_reports))


@contextmanager
def _failing(parties: list[PartyState], what: str):
    """Turn a failure inside into ``ProtocolError`` ``{who} {what}: …``; a ``ProtocolError`` passes as is.

    ``who`` is the member that diverged, a lone party, else every party of the call.
    """
    try:
        yield
    except ProtocolError:
        raise
    except Exception as exc:
        if isinstance(exc, DivergenceError):
            who = f"party {parties[exc.member].id}"
        else:
            ids = ", ".join(str(p.id) for p in parties)
            who = f"party {ids}" if len(parties) == 1 else f"parties {ids}"
        raise ProtocolError(f"{who} {what}: {exc}") from exc


def fit_and_measure(parties: list[PartyState], fit, test: Dataset, kind, phase: str) -> list[MetricsRow]:
    """``fit(parties)``, then every party's test accuracy, as ``kind`` rows.

    ``fit`` returns each party's (digest loss, revisit loss), or None. A row's
    ``wall_ms`` is the whole call's time split evenly among the parties. A
    failure of ``fit`` other than a ``ProtocolError`` raises ``ProtocolError``
    ``party K failed during {phase}: …`` (or ``parties K, L, …``, see
    ``_failing``); a failed evaluation names its party.
    """
    t0 = time.perf_counter()
    with _failing(parties, f"failed during {phase}"):
        losses = fit(parties) or [(None, None)] * len(parties)
    accs = []
    for p in parties:
        with _failing([p], f"failed during {phase}"):
            accs.append(nn.accuracy(p.net, test))
    wall_ms = (time.perf_counter() - t0) * 1000.0 / len(parties)
    return [
        MetricsRow(kind, p.id, acc, digest_loss, revisit_loss, wall_ms)
        for p, acc, (digest_loss, revisit_loss) in zip(parties, accs, losses)
    ]


def prologue(
    parties: list[PartyState], public: Dataset, test: Dataset, cfg: CollaborationConfig
) -> list[MetricsRow]:
    """Transfer-learn the parties and measure each one's baseline, on the caller's thread.

    Any failure is a ``ProtocolError`` ``party K failed during transfer: …``
    (or ``parties K, L, …``, see ``fit_and_measure``).
    """

    def transfer(parties):
        transfer_learn(parties, public, cfg)

    return fit_and_measure(parties, transfer, test, BASELINE, "transfer")


def select_subset(n0: int, subset_size: int, rng: np.random.Generator, round_index: int) -> SubsetAnnouncement:
    """Uniform sample of ``subset_size`` (1..``n0``) indices without replacement from the public set."""
    indices = rng.choice(n0, size=subset_size, replace=False)
    return SubsetAnnouncement(round_index, indices.astype(np.int64))


def compute_scores(party: PartyState, public: Dataset, selection: SubsetAnnouncement) -> ScoreReport:
    """Raw logits on the selected public samples, in selection order. No softmax."""
    logits = nn.forward(party.net, public.features[selection.indices])
    return ScoreReport(selection.round, party.id, logits)


def aggregate(reports: list[ScoreReport], weights: "tuple[float, ...] | list[float]") -> ConsensusBroadcast:
    """Weighted elementwise average of score matrices, positionally paired with weights, in float64.

    It checks nothing: in ``server_loop`` its input is what ``expect`` has
    checked, one finite report per party, in id order, all of the round and of
    one shape, and the config holds one weight per party.
    """
    acc = np.zeros(reports[0].scores.shape, dtype=np.float64)
    for rep, w in zip(reports, weights):
        acc += w * rep.scores.astype(np.float64)
    return ConsensusBroadcast(reports[0].round, acc.astype(np.float32))


def _digest_and_revisit(
    parties: list[PartyState], public: Dataset, cfg: CollaborationConfig, selections, reports, consensus
):
    """Digest each party's consensus, then revisit its private data; returns each party's (digest loss, revisit loss).

    A failure reads ``party K round J: digest failed: …`` (or ``revisit
    failed``), naming the member that diverged or a lone party, else
    ``parties K, L, …``.
    """
    j = selections[parties[0].id].round
    digest = []
    for p in parties:
        x, y = public.features[selections[p.id].indices], consensus[p.id].targets
        digest.append(nn.Member(p.net, x, y, rng_stream(cfg.seed, p.id, "digest", j)))
    with _failing(parties, f"round {j}: digest failed"):
        digest_losses = [nn.distill_loss(reports[p.id].scores, consensus[p.id].targets)[0] for p in parties]
        nn.train_distill(digest, cfg.digest_epochs, cfg.digest_batch_size, cfg.opt)
    revisit = [
        nn.Member(p.net, p.private.features, p.private.labels, rng_stream(cfg.seed, p.id, "revisit", j))
        for p in parties
    ]
    with _failing(parties, f"round {j}: revisit failed"):
        revisits = nn.train_supervised(revisit, cfg.revisit_epochs, cfg.revisit_batch_size, cfg.opt)
    return [(d, r.epoch_losses[-1] if r.epoch_losses else None) for d, r in zip(digest_losses, revisits)]


# --- channel-driven execution ---------------------------------------------------

# each frame kind's name in error messages
_FRAMES = {
    ScoreReport: "scores",
    ConsensusBroadcast: "consensus",
    SubsetAnnouncement: "subset",
    RoundComplete: "completion",
}


def expect(channel, kind, round: int, party: "int | None", shape=(), below: "int | None" = None):
    """Receive one frame: a ``kind`` for ``round`` whose array has exactly ``shape``.

    A score report must come from ``party``, whose channel carried it (None at
    the hello, before the sender is known). Subset indices must lie below
    ``below``; scores and consensus must be finite. A failure raises
    ``ProtocolError`` starting ``party K round J:``, a frame that does not
    decode ``party K round J: undecodable <frame>: …`` (``party ?`` at a hello).
    """
    what = "hello" if round == 0 else _FRAMES[kind]
    try:
        msg = channel.recv()
    except CodecError as exc:
        who = "?" if party is None else party
        raise ProtocolError(f"party {who} round {round}: undecodable {what}: {exc}") from exc
    sender = party if party is not None else getattr(msg, "party", "?")
    where = f"party {sender} round {round}:"
    if not isinstance(msg, kind) or msg.round != round:
        raise ProtocolError(f"{where} expected a {what}, got a round-{msg.round} {type(msg).__name__}")
    if party is not None and getattr(msg, "party", party) != party:
        raise ProtocolError(f"{where} its channel delivered the {what} of party {msg.party}")
    array_field = transport.LAYOUT[kind].array
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
    0) so the server can map its channel to it before round 1. A round's
    training and evaluations are one ``fit_and_measure`` call. Returns the
    round rows in round, then party order, and closes every channel given when
    it returns or raises, which releases a server still waiting on a party.
    """
    # Ordering rule: a stream channel may buffer less than one frame, so a send
    # can block until the peer reads it. Serve the parties in ascending id, the
    # order server_loop uses, and receive every party's frame of a phase before
    # sending any frame of the next phase: all subsets, then all scores, then
    # all consensus frames, then the round's training and evaluation in one
    # call, then every completion frame in ascending id. Breaking either half
    # can leave both ends blocked.
    parties = sorted(parties, key=lambda p: p.id)
    subset_size = min(cfg.subset_size, public.n)
    metrics = []
    try:
        for party in parties:
            hello = ScoreReport(0, party.id, np.zeros((0, party.net.output_dim), dtype=np.float32))
            channels[party.id].send(hello)
        for j in range(1, cfg.rounds + 1):
            selections, reports, consensus = {}, {}, {}
            for party in parties:
                chan = channels[party.id]
                selections[party.id] = expect(chan, SubsetAnnouncement, j, party.id, (subset_size,), public.n)
            for party in parties:
                with _failing([party], f"round {j}: communicate failed"):
                    reports[party.id] = compute_scores(party, public, selections[party.id])
                channels[party.id].send(reports[party.id])
            for party in parties:
                shape = reports[party.id].scores.shape
                consensus[party.id] = expect(channels[party.id], ConsensusBroadcast, j, party.id, shape)

            def fit(parties):
                return _digest_and_revisit(parties, public, cfg, selections, reports, consensus)

            metrics.extend(fit_and_measure(parties, fit, test, j, "rounds"))
            for party in parties:
                channels[party.id].send(RoundComplete(j))
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
) -> MetricsLog:
    """Transfer-learning prologue for every party, then P collaboration rounds.

    ``transport_kind`` selects what the channels run over ("bus": in-process
    socketpairs, "tcp": 127.0.0.1); results are independent of the choice.
    In order: the checks, the ``prologue`` of every party, the channels, then
    the server (``server_loop``) as the one job of an executor, on a
    ``fedmd-server_0`` thread that is joined before this returns or raises,
    and ``party_loop`` for every party on the caller's thread. The server's
    failure is raised when the party loop returns, or fails only with a
    ``ChannelError``, the teardown of that failure: a ``ProtocolError`` as
    is, anything else as ``server failed: …``. Returns the baseline rows in
    party order, then the round rows.
    """
    ids = sorted(p.id for p in parties)
    if ids != list(range(cfg.parties)):
        raise ConfigError(f"config names {cfg.parties} parties, ids 0..{cfg.parties - 1}, but got ids {ids}")
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
    with ThreadPoolExecutor(1, "fedmd-server") as pool:
        server = pool.submit(server_loop, server_ends, cfg, public.n, test.num_classes)
        try:
            rounds = party_loop(parties, public, test, cfg, party_channels)
        except ChannelError:  # the teardown of a failed server, whose failure is the root cause
            if server.exception() is None:
                raise
        failure = server.exception()
        if isinstance(failure, ProtocolError):
            raise failure
        if failure is not None:
            raise ProtocolError(f"server failed: {failure}") from failure

    return MetricsLog(sorted(baselines, key=lambda m: m.party) + rounds, seed=cfg.seed)
