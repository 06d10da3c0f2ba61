"""Dense feed-forward classifier kernel: forward/backward, losses, Adam, training loops.

Weights and activations are float32; loss reductions accumulate in float64.
All functions follow the dtype of their array inputs, so the gradient checker
can drive the same code at float64.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergenceError, ShapeError

ACTIVATIONS = ("relu", "identity")
DISTILL_LOSSES = ("mae", "mse")


@dataclass
class Layer:
    weight: np.ndarray  # [fan_in, fan_out]
    bias: np.ndarray  # [fan_out]
    activation: str


@dataclass
class Network:
    """An independently configured classifier: a stack of dense layers ending in raw logits.

    Two networks in the same collaboration may differ in depth and widths;
    only the input dim and class count must agree across participants.
    Building one copies the layers' arrays into one contiguous vector ``flat``
    and rebinds each weight and bias to a view of it.
    """

    layers: list[Layer]
    output_dim: int
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("network needs at least one layer")
        for i, lyr in enumerate(self.layers):
            if lyr.activation not in ACTIVATIONS:
                raise ConfigError(f"unknown activation {lyr.activation!r} in layer {i}")
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
        last = self.layers[-1]
        if last.activation != "identity":
            raise ConfigError("final layer must emit raw logits (identity activation)")
        if last.weight.shape[1] != self.output_dim:
            raise ShapeError(
                f"final layer out-dim {last.weight.shape[1]} vs declared class count {self.output_dim}"
            )
        params = self.parameters()
        self.flat = np.empty(sum(p.size for p in params), dtype=np.result_type(*params))
        views = _views(self.flat, params)
        for view, p in zip(views, params):
            view[...] = p
        for lyr, w, b in zip(self.layers, views[::2], views[1::2]):
            lyr.weight, lyr.bias = w, b

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[0]

    def parameters(self) -> list[np.ndarray]:
        out = []
        for lyr in self.layers:
            out.append(lyr.weight)
            out.append(lyr.bias)
        return out

    def copy(self) -> "Network":
        """An independent network; building it copies the arrays into a new flat vector."""
        return Network([Layer(l.weight, l.bias, l.activation) for l in self.layers], self.output_dim)

    def __reduce__(self):
        # pickle and copy.deepcopy would copy each view on its own, cut off from ``flat``
        return Network, ([Layer(l.weight, l.bias, l.activation) for l in self.layers], self.output_dim)


def _views(flat: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
    """Consecutive views of ``flat`` shaped like the arrays in ``like``."""
    views, start = [], 0
    for a in like:
        views.append(flat[start : start + a.size].reshape(a.shape))
        start += a.size
    return views


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
        act = "relu" if i < len(dims) - 2 else "identity"
        layers.append(Layer(w, b, act))
    return Network(layers, num_classes)


def forward(net: Network, batch: np.ndarray) -> np.ndarray:
    """Raw logits for a batch; no softmax is ever applied."""
    logits, _ = _forward_cached(net, batch)
    return logits


def _forward_cached(net: Network, batch: np.ndarray):
    if batch.ndim != 2:
        raise ShapeError(f"batch must be 2-d, got shape {batch.shape}")
    if batch.shape[1] != net.input_dim:
        raise ShapeError(
            f"batch feature dim {batch.shape[1]} does not match network input dim {net.input_dim}"
        )
    h = batch
    pre = []  # pre-activation per layer
    post = [batch]  # layer inputs, aligned so post[i] feeds layer i
    for lyr in net.layers:
        z = h @ lyr.weight
        z += lyr.bias
        pre.append(z)
        h = np.maximum(z, 0) if lyr.activation == "relu" else z
        post.append(h)
    return h, (pre, post)


def _backward(net: Network, cache, dlogits: np.ndarray, grads: list[np.ndarray]) -> None:
    """Write the parameter gradients for a loss whose logit gradient is ``dlogits``.

    ``grads`` are arrays aligned with ``net.parameters()``; every entry is overwritten.
    """
    pre, post = cache
    delta = dlogits
    for i in range(len(net.layers) - 1, -1, -1):
        lyr = net.layers[i]
        if lyr.activation == "relu":
            delta *= pre[i] > 0  # delta is a fresh product here: the last layer is identity
        np.matmul(post[i].T, delta, out=grads[2 * i])
        delta.sum(axis=0, out=grads[2 * i + 1])
        if i > 0:
            delta = delta @ lyr.weight.T


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood and its logit gradient (softmax - onehot) / B."""
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ShapeError(f"logits {logits.shape} vs labels {labels.shape}")
    n, c = logits.shape
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= c:
        bad = labels[(labels < 0) | (labels >= c)][0]
        raise IndexError(f"label {bad} out of range for {c} classes")
    rows = np.arange(n)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    denom = e.sum(axis=1, dtype=np.float64)
    # float64 minus float32 widens the picked logits exactly
    loss = float((np.log(denom) - shifted[rows, labels]).sum() / n)
    # softmax divides in float64 and rounds to the logits' dtype
    grad = np.divide(e, denom[:, None], out=e, casting="same_kind")
    grad[rows, labels] -= 1
    grad /= n
    return loss, grad


def distill_loss(
    logits: np.ndarray, targets: np.ndarray, kind: str = "mae"
) -> tuple[float, np.ndarray]:
    """Score-matching loss against consensus targets, with its (sub)gradient.

    ``mae`` (default) is mean absolute error over all entries; its subgradient
    is sign/(B*C) with 0 at exact ties. ``mse`` is mean squared error.
    """
    if logits.shape != targets.shape:
        raise ShapeError(f"logits {logits.shape} vs targets {targets.shape}")
    if kind not in DISTILL_LOSSES:
        raise ConfigError(f"unknown distillation loss {kind!r}")
    d = logits - targets
    # the loss value takes its difference in float64, where squaring cannot
    # amplify float32 rounding; the gradient keeps the float32 difference
    d64 = logits.astype(np.float64) - targets.astype(np.float64)
    # sum / size is np.mean's arithmetic; Python-scalar factors keep d's dtype
    if kind == "mae":
        return float(np.abs(d64, out=d64).sum() / d.size), np.sign(d) / d.size
    return float(np.square(d64, out=d64).sum() / d.size), (2.0 / d.size) * d


@dataclass(frozen=True)
class AdamParams:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


@dataclass
class AdamState:
    """Moment estimates for one parameter list; ``t`` counts completed steps."""

    params: AdamParams
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @staticmethod
    def fresh(params: list[np.ndarray], opt: AdamParams) -> "AdamState":
        return AdamState(opt, [np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params])


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
    hp = state.params
    t = state.t + 1
    bc1 = 1.0 - hp.beta1**t
    bc2 = 1.0 - hp.beta2**t
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m2 = hp.beta1 * m + (1.0 - hp.beta1) * g
        v2 = hp.beta2 * v + (1.0 - hp.beta2) * (g * g)
        update = (m2 / bc1) / (np.sqrt(v2 / bc2) + hp.epsilon)
        new_params.append(p - hp.lr * update)
        new_m.append(m2)
        new_v.append(v2)
    return new_params, AdamState(hp, new_m, new_v, t)


@dataclass
class TrainReport:
    """Per-epoch mean losses of one training phase."""

    epoch_losses: list[float] = field(default_factory=list)

    @property
    def epochs(self) -> int:
        return len(self.epoch_losses)


def _adam_in_place(p, g, m, v, tmp, hp: AdamParams, t: int) -> None:
    """Step ``t`` of ``adam_step`` on flat vectors, written into ``p``, ``m`` and ``v``.

    The ops and their order are ``adam_step``'s own, so the bits are too. The
    scalars stay Python floats, which keeps every op in the vectors' dtype.
    ``g`` is spent: it holds the update afterwards.
    """
    bc1 = 1.0 - hp.beta1**t
    bc2 = 1.0 - hp.beta2**t
    m *= hp.beta1
    np.multiply(g, 1.0 - hp.beta1, out=tmp)
    m += tmp
    v *= hp.beta2
    np.multiply(g, g, out=tmp)
    tmp *= 1.0 - hp.beta2
    v += tmp
    np.divide(v, bc2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += hp.epsilon
    np.divide(m, bc1, out=g)
    g /= tmp
    g *= hp.lr
    p -= g


def _run_epochs(net, inputs, loss_of_batch, epochs, batch_size, opt, rng, on_epoch=None) -> TrainReport:
    """Minibatch descent with one persistent Adam state across all epochs.

    Gradients, moments and scratch are flat vectors like ``net.flat`` that live
    only for this call. ``on_epoch(epoch_index, mean_loss)`` may return True to
    stop early.
    """
    n = inputs.shape[0]
    if n == 0:
        raise ConfigError("cannot train on an empty dataset")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if epochs < 0:
        raise ConfigError(f"epochs must be >= 0, got {epochs}")
    grad, m, v, tmp = (np.zeros_like(net.flat) for _ in range(4))
    grads = _views(grad, net.parameters())
    t = 0
    report = TrainReport()
    for epoch in range(epochs):
        perm = rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch_size):
            idx = perm[start : start + batch_size]
            logits, cache = _forward_cached(net, inputs[idx])
            loss, dlogits = loss_of_batch(logits, idx)
            if not math.isfinite(loss):
                raise DivergenceError(f"non-finite training loss in epoch {epoch}")
            _backward(net, cache, dlogits, grads)
            t += 1
            _adam_in_place(net.flat, grad, m, v, tmp, opt, t)
            total += loss * len(idx)
        report.epoch_losses.append(total / n)
        if on_epoch is not None and on_epoch(epoch, report.epoch_losses[-1]):
            break
    return report


def train_supervised(net, data, epochs, batch_size, opt: AdamParams, rng) -> TrainReport:
    """Minibatch cross-entropy descent with a fresh Adam state and caller-seeded shuffling."""

    def batch_loss(logits, idx):
        return cross_entropy(logits, data.labels[idx])

    return _run_epochs(net, data.features, batch_loss, epochs, batch_size, opt, rng)


def train_distill(
    net, inputs, targets, epochs, batch_size, opt: AdamParams, rng, kind: str = "mae"
) -> TrainReport:
    """Minibatch descent toward consensus targets; shuffling keeps rows paired."""
    if inputs.shape[0] != targets.shape[0]:
        raise ShapeError(f"inputs rows {inputs.shape[0]} vs target rows {targets.shape[0]}")

    def batch_loss(logits, idx):
        return distill_loss(logits, targets[idx], kind)

    return _run_epochs(net, inputs, batch_loss, epochs, batch_size, opt, rng)


def accuracy(net: Network, data) -> float:
    """Fraction of samples whose argmax logit hits the label; ties go to the lowest class."""
    if data.features.shape[0] == 0:
        raise ConfigError("cannot evaluate on an empty dataset")
    preds = np.argmax(forward(net, data.features), axis=1)
    return float(np.mean(preds == data.labels, dtype=np.float64))


def train_to_convergence(
    net,
    train,
    val,
    batch_size,
    opt: AdamParams,
    rng,
    max_epochs: int = 100,
    patience: int = 5,
    min_improvement: float = 1e-3,
) -> TrainReport:
    """Supervised training that stops once val accuracy stalls.

    Stops after ``patience`` consecutive epochs without an improvement larger
    than ``min_improvement`` (absolute accuracy), capped at ``max_epochs``.
    Optimizer state persists across epochs.
    """
    tracker = {"best": -1.0, "stall": 0}

    def stalled(_epoch, _loss):
        acc = accuracy(net, val)
        if acc > tracker["best"] + min_improvement:
            tracker["best"] = acc
            tracker["stall"] = 0
            return False
        tracker["stall"] += 1
        return tracker["stall"] >= patience

    def batch_loss(logits, idx):
        return cross_entropy(logits, train.labels[idx])

    return _run_epochs(
        net, train.features, batch_loss, max_epochs, batch_size, opt, rng, on_epoch=stalled
    )


# --- gradient checking -------------------------------------------------------

GRADCHECK_STEP = 1e-4
GRADCHECK_TOLERANCE = 1e-3


@dataclass
class GradCheckCase:
    arch: tuple[int, ...]
    loss: str
    max_rel_err: float


@dataclass
class GradCheckReport:
    cases: list[GradCheckCase]

    @property
    def max_rel_err(self) -> float:
        return max(c.max_rel_err for c in self.cases)

    @property
    def passed(self) -> bool:
        return self.max_rel_err < GRADCHECK_TOLERANCE


def _fd_gradients(net, batch, loss_fn, h: float) -> list[np.ndarray]:
    """Central finite differences of the scalar loss w.r.t. every parameter entry."""
    grads = []
    for p in net.parameters():
        g = np.zeros_like(p)
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + h
            up = loss_fn(forward(net, batch))
            flat_p[i] = orig - h
            down = loss_fn(forward(net, batch))
            flat_p[i] = orig
            flat_g[i] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def gradient_check(
    num_nets: int = 50, seed: int = 0, max_dim: int = 8, h: float = GRADCHECK_STEP
) -> GradCheckReport:
    """Compare analytic gradients with float64 central differences on random small nets.

    Inputs are resampled whenever a pre-activation or a distillation residual
    sits within 10*h of a kink, where finite differences are invalid.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for trial in range(num_nets):
        depth = int(rng.integers(1, 4))
        dims = tuple(int(rng.integers(2, max_dim + 1)) for _ in range(depth + 1))
        net = build_network(dims[0], dims[1:-1], dims[-1], rng, dtype=np.float64)
        batch_n = int(rng.integers(1, 5))
        loss_kind = "xent" if trial % 2 == 0 else "mae"
        for _ in range(200):
            batch = rng.standard_normal((batch_n, dims[0]))
            logits, (pre, _) = _forward_cached(net, batch)
            if all(np.abs(z).min(initial=np.inf) > 10 * h for z in pre[:-1]):
                break
        if loss_kind == "xent":
            labels = rng.integers(0, dims[-1], size=batch_n)
            loss_fn = lambda lg: cross_entropy(lg, labels)[0]
            _, dlogits = cross_entropy(logits, labels)
        else:
            offsets = rng.uniform(0.05, 1.0, size=logits.shape) * rng.choice([-1.0, 1.0], logits.shape)
            targets = logits + offsets
            loss_fn = lambda lg: distill_loss(lg, targets, "mae")[0]
            _, dlogits = distill_loss(logits, targets, "mae")
        _, cache = _forward_cached(net, batch)
        analytic = [np.empty_like(p) for p in net.parameters()]
        _backward(net, cache, dlogits, analytic)
        numeric = _fd_gradients(net, batch, loss_fn, h)
        worst = 0.0
        for a, f in zip(analytic, numeric):
            denom = np.maximum(np.abs(a) + np.abs(f), 1e-8)
            worst = max(worst, float(np.max(np.abs(a - f) / denom)))
        cases.append(GradCheckCase(dims, loss_kind, worst))
    return GradCheckReport(cases)
