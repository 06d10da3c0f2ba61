"""The list-based reference trainer, the loop the fused, lockstep one replaced.

It makes fresh gradient arrays per layer, takes the pure ``nn.adam_step`` and
rebinds the new arrays into the layers, with its own forward, cross-entropy
and distillation loss, so every op of the fused path is checked against the
one it replaced. The kernel tests and the whole-run oracle (``oracle_util``)
train with it.
"""

import numpy as np

from fedmd import nn


def reference_forward_cached(net, batch):
    h, pre, post = batch, [], [batch]
    last = len(net.layers) - 1
    for i, lyr in enumerate(net.layers):
        z = h @ lyr.weight + lyr.bias
        pre.append(z)
        h = z if i == last else np.maximum(z, 0)
        post.append(h)
    return h, (pre, post)


def reference_forward(net, batch):
    return reference_forward_cached(net, batch)[0]


def reference_backward(net, cache, dlogits):
    pre, post = cache
    grads = [None] * (2 * len(net.layers))
    delta = dlogits
    for i in range(len(net.layers) - 1, -1, -1):
        lyr = net.layers[i]
        if i < len(net.layers) - 1:
            delta = delta * (pre[i] > 0)
        grads[2 * i] = post[i].T @ delta
        grads[2 * i + 1] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ lyr.weight.T
    return grads


def reference_cross_entropy(logits, labels):
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    denom = e.sum(axis=1, dtype=np.float64)
    loss = float(np.mean(np.log(denom) - shifted[np.arange(n), labels].astype(np.float64)))
    grad = (e / denom[:, None]).astype(logits.dtype)
    grad[np.arange(n), labels] -= 1
    grad /= n
    return loss, grad


def reference_distill_loss(logits, targets):
    d = logits - targets
    d64 = logits.astype(np.float64) - targets.astype(np.float64)
    return float(np.mean(np.abs(d64))), np.sign(d) / d.size


# each batch loss of nn's trainer, and its reference
REFERENCE_LOSSES = {nn._cross_entropy: reference_cross_entropy, nn._distill_loss: reference_distill_loss}


def reference_run_epochs(net, inputs, targets, loss, epochs, batch_size, opt, rng, on_epoch=None):
    """``epochs`` of minibatch Adam on ``loss``, ``reference_cross_entropy`` or ``reference_distill_loss``."""
    n = inputs.shape[0]
    state = nn.AdamState.fresh(net.parameters(), opt)
    report = nn.TrainReport()
    for epoch in range(epochs):
        perm = rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch_size):
            idx = perm[start : start + batch_size]
            logits, cache = reference_forward_cached(net, inputs[idx])
            value, dlogits = loss(logits, targets[idx])
            grads = reference_backward(net, cache, dlogits)
            new_params, state = nn.adam_step(net.parameters(), grads, state)
            for lyr, w, b in zip(net.layers, new_params[::2], new_params[1::2]):
                lyr.weight, lyr.bias = w, b
            total += value * len(idx)
        report.epoch_losses.append(total / n)
        if on_epoch is not None and on_epoch(epoch, report.epoch_losses[-1]):
            break
    return report


def reference_group_run_epochs(members, loss, epochs, batch_size, opt, on_epoch=None):
    """The reference loop run on each member of a group alone, on the reference of nn's batch ``loss``."""
    reports = []
    for i, mem in enumerate(members):
        rows = slice(None) if mem.rows is None else mem.rows
        stop = None if on_epoch is None else (lambda epoch, value, i=i: on_epoch(i, epoch, value))
        reports.append(reference_run_epochs(
            mem.net, mem.inputs[rows], mem.targets[rows], REFERENCE_LOSSES[loss], epochs, batch_size, opt, mem.rng, stop
        ))
    return reports
