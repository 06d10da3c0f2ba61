"""Dense feed-forward classifier kernel: forward/backward, losses, Adam, training loops.

Weights and activations are float32; loss reductions accumulate in float64.
All functions follow the dtype of their array inputs, so the tests' gradient
checker drives the same code at float64.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergenceError, ShapeError


@dataclass
class Layer:
    weight: np.ndarray  # [fan_in, fan_out]
    bias: np.ndarray  # [fan_out]


@dataclass
class Network:
    """An independently configured classifier: a stack of dense layers ending in raw logits.

    Every layer but the last applies ReLU; the last emits raw logits. Two
    networks in the same collaboration may differ in depth and widths; only
    the input dim and class count must agree across participants. The layers
    hold plain arrays until a lockstep group trains the network; afterwards
    they stay views of that group's parameter vector, and the next group
    copies them out. Each network has a region of a group vector to itself,
    so no two networks share a parameter.
    """

    layers: list[Layer]

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("network needs at least one layer")
        for i, lyr in enumerate(self.layers):
            if lyr.weight.ndim != 2 or lyr.bias.ndim != 1:
                raise ShapeError(f"layer {i}: weight must be 2-d and bias 1-d")
            if lyr.weight.shape[1] != lyr.bias.shape[0]:
                raise ShapeError(
                    f"layer {i}: weight out-dim {lyr.weight.shape[1]} vs bias dim {lyr.bias.shape[0]}"
                )
            if i > 0 and self.layers[i - 1].weight.shape[1] != lyr.weight.shape[0]:
                raise ShapeError(
                    f"layer {i - 1} out-dim {self.layers[i - 1].weight.shape[1]} does not "
                    f"compose with layer {i} in-dim {lyr.weight.shape[0]}"
                )

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[0]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weight.shape[1]

    def parameters(self) -> list[np.ndarray]:
        out = []
        for lyr in self.layers:
            out.append(lyr.weight)
            out.append(lyr.bias)
        return out

    def copy(self) -> "Network":
        """An independent network over copies of each array."""
        return Network([Layer(l.weight.copy(), l.bias.copy()) for l in self.layers])

    __copy__ = copy


def _bind(net: Network, views: list[np.ndarray]) -> None:
    """Copy ``net``'s parameters into ``views`` (aligned with ``parameters()``) and rebind its layers to them."""
    for view, p in zip(views, net.parameters()):
        view[...] = p
    for lyr, w, b in zip(net.layers, views[::2], views[1::2]):
        lyr.weight, lyr.bias = w, b


def build_network(
    input_dim: int,
    hidden: tuple[int, ...],
    num_classes: int,
    rng: np.random.Generator,
    dtype=np.float32,
) -> Network:
    """Fresh network with He-style uniform init (bound sqrt(6/fan_in)) and zero biases."""
    dims = [input_dim, *hidden, num_classes]
    layers = []
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        bound = math.sqrt(6.0 / fan_in)
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(dtype)
        b = np.zeros(fan_out, dtype=dtype)
        layers.append(Layer(w, b))
    return Network(layers)


def forward(net: Network, batch: np.ndarray) -> np.ndarray:
    """Raw logits for a batch; no softmax is ever applied. Keeps no activations for a backward pass."""
    if batch.ndim != 2:
        raise ShapeError(f"batch must be 2-d, got shape {batch.shape}")
    if batch.shape[1] != net.input_dim:
        raise ShapeError(
            f"batch feature dim {batch.shape[1]} does not match network input dim {net.input_dim}"
        )
    h = batch
    for i, lyr in enumerate(net.layers):
        if i:  # the layer before was a hidden one
            np.maximum(h, 0, out=h)
        h = h @ lyr.weight
        h += lyr.bias
    return h


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood and its logit gradient (softmax - onehot) / B."""
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ShapeError(f"logits {logits.shape} vs labels {labels.shape}")
    _check_labels(labels, logits.shape[1])
    losses, grad = _cross_entropy(logits[None], labels[None], np.empty((1, *logits.shape), logits.dtype))
    return float(losses[0]), grad[0]


def _check_labels(labels: np.ndarray, c: int) -> None:
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= c:
        bad = labels[(labels < 0) | (labels >= c)][0]
        raise IndexError(f"label {bad} out of range for {c} classes")


def _cross_entropy(logits, labels, out) -> tuple[np.ndarray, np.ndarray]:
    """``cross_entropy`` of each of K stacked (K, B, C) logit blocks against (K, B) labels.

    Returns the K losses (float64) and the gradient, written into ``out``, a
    C-contiguous array like ``logits``.
    """
    k, n, c = logits.shape
    # the exact row maximum, one class column at a time: its cost barely grows with the rows
    top = logits[:, :, 0].copy()
    for j in range(1, c):
        np.maximum(top, logits[:, :, j], out=top)
    shifted = logits - top[:, :, None]
    e = np.exp(shifted, out=out)
    denom = np.add.reduce(e, axis=2, dtype=np.float64)
    at = labels + c * np.arange(k * n).reshape(k, n)  # each label's place in the flattened block
    # float64 minus float32 widens the picked logits exactly
    losses = np.add.reduce(np.log(denom) - shifted.reshape(-1)[at], axis=1) / n
    # softmax divides in float64 and rounds to the logits' dtype
    grad = np.divide(e, denom[:, :, None], out=e, casting="same_kind")
    grad.reshape(-1)[at] -= 1
    grad /= n
    return losses, grad


def distill_loss(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean absolute error against consensus targets, and its subgradient: sign/(B*C), 0 at exact ties."""
    if logits.shape != targets.shape:
        raise ShapeError(f"logits {logits.shape} vs targets {targets.shape}")
    out = np.empty(logits.shape, np.result_type(logits, targets))
    losses, grad = _distill_loss(logits[None], targets[None], out[None])
    return float(losses[0]), grad[0]


def _distill_loss(logits, targets, out) -> tuple[np.ndarray, np.ndarray]:
    """``distill_loss`` of each of K stacked (K, B, C) logit blocks; the gradient is written into ``out``."""
    size = logits[0].size
    # the loss value takes its difference in float64; the gradient keeps the float32 difference
    d64 = logits.astype(np.float64) - targets.astype(np.float64)
    d = np.subtract(logits, targets, out=out)
    # sum / size is np.mean's arithmetic; a Python-scalar divisor keeps d's dtype
    losses = np.add.reduce(np.abs(d64, out=d64), axis=(1, 2)) / size
    np.sign(d, out=d)
    d /= size
    return losses, d


# Adam's decays and epsilon are fixed; a training call takes only its learning rate
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class AdamState:
    """Moment estimates for one parameter list, stepped at learning rate ``lr``; ``t`` counts completed steps."""

    lr: float
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @staticmethod
    def fresh(params: list[np.ndarray], lr: float) -> "AdamState":
        return AdamState(lr, [np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params])


def adam_step(
    params: list[np.ndarray], grads: list[np.ndarray], state: AdamState
) -> tuple[list[np.ndarray], AdamState]:
    """One Adam update with bias correction. Pure: inputs are not mutated."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeError(
            f"param/grad/state length mismatch: {len(params)}/{len(grads)}/{len(state.m)}"
        )
    for p, g, m in zip(params, grads, state.m):
        if p.shape != g.shape or p.shape != m.shape:
            raise ShapeError(f"param shape {p.shape} vs grad {g.shape} vs moment {m.shape}")
    t = state.t + 1
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m2 = BETA1 * m + (1.0 - BETA1) * g
        v2 = BETA2 * v + (1.0 - BETA2) * (g * g)
        update = (m2 / bc1) / (np.sqrt(v2 / bc2) + EPSILON)
        new_params.append(p - state.lr * update)
        new_m.append(m2)
        new_v.append(v2)
    return new_params, AdamState(state.lr, new_m, new_v, t)


@dataclass
class TrainReport:
    """Per-epoch mean losses of one training phase."""

    epoch_losses: list[float] = field(default_factory=list)

    @property
    def epochs(self) -> int:
        return len(self.epoch_losses)


def _adam_in_place(p, g, m, v, tmp, lr: float, t: int) -> None:
    """Step ``t`` of ``adam_step`` on flat vectors, written into ``p``, ``m`` and ``v``.

    The ops and their order are ``adam_step``'s own, so the bits are too. The
    scalars stay Python floats, which keeps every op in the vectors' dtype.
    ``g`` is spent: it holds the update afterwards. Acceptance criterion 3
    (``test_criterion_3_adam_conformance``) holds it to a scalar Adam oracle.
    """
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    m *= BETA1
    np.multiply(g, 1.0 - BETA1, out=tmp)
    m += tmp
    v *= BETA2
    np.multiply(g, g, out=tmp)
    tmp *= 1.0 - BETA2
    v += tmp
    np.divide(v, bc2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += EPSILON
    np.divide(m, bc1, out=g)
    g /= tmp
    g *= lr
    p -= g


@dataclass
class Member:
    """One network of a training call, and what it trains on.

    It descends on rows ``rows`` of ``inputs`` toward the same rows of
    ``targets``: class labels, or score targets to distill. ``rows`` None means
    every row. It shuffles them with its own ``rng`` every epoch.
    ``train_to_convergence`` judges it on ``val``.
    """

    net: Network
    inputs: np.ndarray
    targets: np.ndarray
    rng: np.random.Generator
    rows: "np.ndarray | None" = None
    val: "object | None" = None


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """One shape, dtype and bytes: ``==`` would equate -0.0 with 0.0, and no NaN with itself."""
    return a is b or ((a.shape, a.dtype) == (b.shape, b.dtype) and a.tobytes() == b.tobytes())


def _shared_rows(members: list[Member]):
    """One inputs array and one targets array that hold every member's data, and each member's rows in them.

    Members whose inputs and targets hold the same bits share them; otherwise
    the arrays are stacked once. A member's rows are None when it trains on all of them.
    """
    sources, rows = [], []
    for mem in members:
        if mem.inputs.shape[0] != mem.targets.shape[0]:
            raise ShapeError(f"inputs rows {mem.inputs.shape[0]} vs target rows {mem.targets.shape[0]}")
        j = next((j for j, src in enumerate(sources) if all(map(_same_bits, src, (mem.inputs, mem.targets)))), None)
        if j is None:
            j = len(sources)
            sources.append((mem.inputs, mem.targets))
        r = mem.rows
        if r is not None and r.size and not 0 <= r.min() <= r.max() < mem.inputs.shape[0]:
            raise IndexError(f"rows outside 0..{mem.inputs.shape[0] - 1}")
        rows.append((j, mem.rows))
    if len(sources) == 1:
        return sources[0][0], sources[0][1], [r for _, r in rows]
    starts = np.cumsum([0] + [x.shape[0] for x, _ in sources])
    inputs = np.concatenate([x for x, _ in sources])
    targets = np.concatenate([y for _, y in sources])
    return inputs, targets, [
        starts[j] + (np.arange(sources[j][0].shape[0]) if r is None else r) for j, r in rows
    ]


class _Group:
    """Networks that step in lockstep, each with its own arithmetic but shared buffers.

    The parameters, gradients and Adam moments of all members are each one
    vector. Level l holds every member's hidden layer l, and the last level
    every output layer; within the vectors, a level's weights come first and
    then its biases, contiguous in member order. Hidden level l's activations
    and deltas are one (batch, sum of widths) buffer each, and the logits are
    stacked (members, batch, classes), so bias add, ReLU, the ReLU mask and
    the bias gradient run once per level. Matmuls stay per member. Building
    the group copies each member's parameters into its ``flat`` and rebinds the
    member's layers to views of it, where they stay after the group is gone.
    """

    def __init__(self, nets: list[Network], batch_size: int):
        self.nets = nets
        self.batch = batch_size
        depth = max(len(net.layers) for net in nets)
        self.levels = [[] for _ in range(depth)]  # (member, layer index) per level
        for k, net in enumerate(nets):
            last = len(net.layers) - 1
            for i in range(last):
                self.levels[i].append((k, i))
            self.levels[-1].append((k, last))
        self.spots = [[None] * len(net.layers) for net in nets]  # [weight start, bias start]
        self.cols = [[None] * len(net.layers) for net in nets]  # columns in the level buffers
        self.bias_spans = []
        size = 0
        for level in self.levels:
            for k, i in level:
                self.spots[k][i] = [size, None]
                size += nets[k].layers[i].weight.size
            start = size
            for k, i in level:
                width = nets[k].layers[i].bias.size
                self.spots[k][i][1] = size
                self.cols[k][i] = slice(size - start, size - start + width)
                size += width
            self.bias_spans.append(slice(start, size))
        dtype = nets[0].layers[0].weight.dtype
        self.flat = np.empty(size, dtype)
        for k, net in enumerate(nets):
            _bind(net, self.member_views(self.flat, k))
        self.grad, self.m, self.v, self.tmp = np.zeros((4, size), dtype)
        hidden = [self.bias_spans[l].stop - self.bias_spans[l].start for l in range(depth - 1)]
        self.acts = [np.empty((batch_size, w), dtype) for w in hidden]
        self.deltas = [np.empty((batch_size, w), dtype) for w in hidden]
        self.plans = {}

    def member_views(self, vec: np.ndarray, k: int) -> list[np.ndarray]:
        """Member ``k``'s parameters' places in a group vector, aligned with its ``parameters()``."""
        views = []
        for lyr, (w0, b0) in zip(self.nets[k].layers, self.spots[k]):
            views.append(vec[w0 : w0 + lyr.weight.size].reshape(lyr.weight.shape))
            views.append(vec[b0 : b0 + lyr.bias.size])
        return views

    def keep(self, ks: list[int]) -> "_Group | None":
        """A group of members ``ks`` that carries on with their parameters and Adam moments.

        The other members leave with their layers where they are, in this group's ``flat``.
        """
        if not ks:
            return None
        group = _Group([self.nets[k] for k in ks], self.batch)
        for j, k in enumerate(ks):
            for new, old in ((group.m, self.m), (group.v, self.v)):
                for a, b in zip(group.member_views(new, j), self.member_views(old, k)):
                    a[...] = b
        return group

    def plan(self, b: int) -> "_Plan":
        if b not in self.plans:
            self.plans[b] = _Plan(self, b)
        return self.plans[b]

    def gradients(self, plan: "_Plan", targets: np.ndarray, loss) -> np.ndarray:
        """Forward ``plan.x``, the batch ``loss`` against ``targets`` and the backward pass; returns the K losses.

        Every gradient lands in ``grad``.
        """
        for matmuls, z, bias, act in plan.forward:
            for a, w, out in matmuls:
                np.matmul(a, w, out=out)
            z += bias
            if act is not None:  # a hidden level
                np.maximum(act, 0, out=act)
        losses, _ = loss(plan.logits, targets, plan.dlogits)
        for act, delta, axis, gbias, matmuls in plan.backward:
            if act is not None:  # post-ReLU activations are positive where the pre-activations are
                delta *= act > 0
            np.add.reduce(delta, axis=axis, out=gbias)
            for a, b, out in matmuls:
                np.matmul(a, b, out=out)
        return losses


class _Plan:
    """The views one step of ``b`` rows works on, made once per group and batch size."""

    def __init__(self, group: _Group, b: int):
        nets = group.nets
        k_all, dtype = len(nets), group.flat.dtype
        self.x = np.empty((k_all, b, nets[0].input_dim), dtype)
        self.logits = np.empty((k_all, b, nets[0].output_dim), dtype)
        self.dlogits = np.empty_like(self.logits)
        acts = [a[:b] for a in group.acts]
        deltas = [d[:b] for d in group.deltas]

        def hidden(buffers, k, i):  # member k's columns of hidden level i
            return buffers[i][:, group.cols[k][i]]

        grads = [group.member_views(group.grad, k) for k in range(k_all)]
        self.forward, self.backward = [], []
        for l, level in enumerate(group.levels):
            bias = group.flat[group.bias_spans[l]]
            gbias = group.grad[group.bias_spans[l]]
            if l == len(group.levels) - 1:  # the output layers, raw logits
                bias, gbias = bias.reshape(k_all, 1, -1), gbias.reshape(k_all, -1)
                z, dz, axis, act = self.logits, self.dlogits, 1, None
                outs, douts = self.logits, self.dlogits
            else:
                z, dz, axis, act = acts[l], deltas[l], 0, acts[l]
                outs = [hidden(acts, k, i) for k, i in level]
                douts = [hidden(deltas, k, i) for k, i in level]
            ins = [self.x[k] if i == 0 else hidden(acts, k, i - 1) for k, i in level]
            self.forward.append((
                [(a, nets[k].layers[i].weight, out) for (k, i), a, out in zip(level, ins, outs)],
                z, bias, act,
            ))
            matmuls = []
            for (k, i), a, delta in zip(level, ins, douts):
                matmuls.append((a.T, delta, grads[k][2 * i]))
                if i > 0:
                    matmuls.append((delta, nets[k].layers[i].weight.T, hidden(deltas, k, i - 1)))
            self.backward.insert(0, (act, dz, axis, gbias, matmuls))


def _run_epochs(members: list[Member], loss, epochs, batch_size, lr: float, on_epoch=None) -> list[TrainReport]:
    """Minibatch descent of any members: those of one row count and dtype step as a lockstep group.

    The groups train one after another, each with one persistent Adam state.
    All members need one input dim and class count and share ``batch_size``
    and the learning rate ``lr``. ``loss`` is the batch loss: ``_cross_entropy`` against class
    labels or ``_distill_loss`` against score targets. Each member's
    shuffling, parameters and losses are bit for bit those it would get
    trained alone. Gradients, moments and scratch live only for this call;
    the members' layers stay views of their group's ``flat``.
    After each epoch, ``on_epoch(i)`` may return True to stop member
    ``members[i]``, and the others go on; a ``DivergenceError`` names its
    member the same way.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if epochs < 0:
        raise ConfigError(f"epochs must be >= 0, got {epochs}")
    if len({(mem.net.input_dim, mem.net.output_dim) for mem in members}) > 1:
        raise ConfigError("members of one call need one input dim and class count")
    groups = {}
    for i, mem in enumerate(members):
        n = mem.inputs.shape[0] if mem.rows is None else len(mem.rows)
        if n == 0:
            raise ConfigError("cannot train on an empty dataset")
        groups.setdefault((n, mem.net.layers[0].weight.dtype), []).append(i)
    reports = [TrainReport() for _ in members]
    for (n, dtype), active in groups.items():
        inputs, targets, rows = _shared_rows([members[i] for i in active])
        inputs = inputs.astype(dtype, copy=False)
        net = members[active[0]].net
        if inputs.shape[1] != net.input_dim:
            raise ShapeError(
                f"batch feature dim {inputs.shape[1]} does not match network input dim {net.input_dim}"
            )
        if loss is _cross_entropy:
            _check_labels(targets, net.output_dim)
        elif targets.shape[1:] != (net.output_dim,):
            raise ShapeError(f"targets of shape {targets.shape[1:]} for {net.output_dim} classes")
        rows = dict(zip(active, rows))
        group = _Group([members[i].net for i in active], min(batch_size, n)) if epochs else None
        t = 0
        for epoch in range(epochs):
            order = np.empty((len(active), n), dtype=np.intp)
            for j, i in enumerate(active):
                perm = members[i].rng.permutation(n)
                order[j] = perm if rows[i] is None else rows[i][perm]
            totals = [0.0] * len(active)
            for start in range(0, n, batch_size):
                idx = order[:, start : start + batch_size]
                plan = group.plan(idx.shape[1])
                inputs.take(idx, axis=0, out=plan.x, mode="clip")
                losses = group.gradients(plan, targets.take(idx, axis=0), loss).tolist()
                for j, value in enumerate(losses):
                    if not math.isfinite(value):
                        raise DivergenceError(f"non-finite training loss in epoch {epoch}", active[j])
                    totals[j] += value * idx.shape[1]
                t += 1
                _adam_in_place(group.flat, group.grad, group.m, group.v, group.tmp, lr, t)
            stopping = []
            for j, i in enumerate(active):
                reports[i].epoch_losses.append(totals[j] / n)
                if on_epoch is not None and on_epoch(i):
                    stopping.append(j)
            if stopping:
                group = group.keep([j for j in range(len(active)) if j not in stopping])
                active = [i for j, i in enumerate(active) if j not in stopping]
                if group is None:
                    break
    return reports


def train_supervised(members: list[Member], epochs, batch_size, lr: float) -> list[TrainReport]:
    """Minibatch cross-entropy descent of any members toward their labels (``_run_epochs``), with a fresh Adam state."""
    return _run_epochs(members, _cross_entropy, epochs, batch_size, lr)


def train_distill(members: list[Member], epochs, batch_size, lr: float) -> list[TrainReport]:
    """Minibatch MAE descent of any members toward their consensus targets (``_run_epochs``), rows kept paired."""
    return _run_epochs(members, _distill_loss, epochs, batch_size, lr)


def accuracy(net: Network, data) -> float:
    """Fraction of samples whose argmax logit hits the label; ties go to the lowest class."""
    if data.features.shape[0] == 0:
        raise ConfigError("cannot evaluate on an empty dataset")
    preds = np.argmax(forward(net, data.features), axis=1)
    return float(np.mean(preds == data.labels, dtype=np.float64))


def train_to_convergence(
    members: list[Member], batch_size, lr: float, max_epochs: int, patience: int, min_improvement: float
) -> list[TrainReport]:
    """Supervised training of any members (``_run_epochs``); each stops once its val accuracy stalls.

    A member stops after ``patience`` consecutive epochs without an
    improvement larger than ``min_improvement`` (absolute accuracy on its
    ``val``), capped at ``max_epochs``. The others in its group keep their
    optimizer state and go on.
    """
    best = [-1.0] * len(members)
    stall = [0] * len(members)

    def stalled(i):
        acc = accuracy(members[i].net, members[i].val)
        if acc > best[i] + min_improvement:
            best[i] = acc
            stall[i] = 0
            return False
        stall[i] += 1
        return stall[i] >= patience

    return _run_epochs(members, _cross_entropy, max_epochs, batch_size, lr, on_epoch=stalled)
