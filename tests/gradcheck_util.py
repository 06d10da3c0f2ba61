"""Checks the training step's analytic gradients against float64 central finite differences."""

from dataclasses import dataclass

import numpy as np

from fedmd.nn import _Group, _cross_entropy, _distill_loss, build_network, cross_entropy, distill_loss, forward

GRADCHECK_STEP = 1e-4
GRADCHECK_MAX_DIM = 8
GRADCHECK_TOLERANCE = 1e-3


@dataclass
class GradCheckCase:
    arch: tuple[int, ...]
    loss: str
    max_rel_err: float


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


def gradient_check(num_nets: int = 50, seed: int = 0) -> list[GradCheckCase]:
    """Compare analytic gradients with float64 central differences on random small nets.

    Inputs are resampled whenever a pre-activation or a distillation residual
    sits within ``10 * GRADCHECK_STEP`` of a kink, where finite differences are invalid.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for trial in range(num_nets):
        depth = int(rng.integers(1, 4))
        dims = tuple(int(rng.integers(2, GRADCHECK_MAX_DIM + 1)) for _ in range(depth + 1))
        net = build_network(dims[0], dims[1:-1], dims[-1], rng, dtype=np.float64)
        batch_n = int(rng.integers(1, 5))
        loss_kind = "xent" if trial % 2 == 0 else "mae"
        for _ in range(200):
            batch = rng.standard_normal((batch_n, dims[0]))
            x, clear = batch, True
            for lyr in net.layers[:-1]:
                x = x @ lyr.weight + lyr.bias
                clear = clear and np.abs(x).min(initial=np.inf) > 10 * GRADCHECK_STEP
                x = np.maximum(x, 0)
            if clear:
                break
        logits = forward(net, batch)
        if loss_kind == "xent":
            targets = rng.integers(0, dims[-1], size=batch_n)
            loss_fn, batch_loss = lambda lg: cross_entropy(lg, targets)[0], _cross_entropy
        else:
            offsets = rng.uniform(0.05, 1.0, size=logits.shape) * rng.choice([-1.0, 1.0], logits.shape)
            targets = logits + offsets
            loss_fn, batch_loss = lambda lg: distill_loss(lg, targets)[0], _distill_loss
        # the analytic gradients come from the training step itself, in a group of one
        group = _Group([net], batch_n)
        plan = group.plan(batch_n)
        plan.x[0] = batch
        group.gradients(plan, targets[None], batch_loss)
        analytic = [g.copy() for g in group.member_views(group.grad, 0)]
        numeric = _fd_gradients(net, batch, loss_fn, GRADCHECK_STEP)
        worst = 0.0
        for a, f in zip(analytic, numeric):
            denom = np.maximum(np.abs(a) + np.abs(f), 1e-8)
            worst = max(worst, float(np.max(np.abs(a - f) / denom)))
        cases.append(GradCheckCase(dims, loss_kind, worst))
    return cases
