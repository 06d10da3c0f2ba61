"""Kernel tests: forward/backward, losses against float64 oracles, Adam, training."""

import copy
import math
import os
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedmd import cli, nn
from fedmd.data import synth_blobs
from fedmd.errors import ConfigError, DivergenceError, ShapeError

from net_util import share_no_parameter
from reference_util import reference_cross_entropy, reference_forward, reference_group_run_epochs


def mlp(*layer_specs):
    layers = [nn.Layer(np.asarray(w, dtype=np.float32), np.asarray(b, dtype=np.float32))
              for w, b in layer_specs]
    return nn.Network(layers)


def rand_net(rng, dims):
    return nn.build_network(dims[0], tuple(dims[1:-1]), dims[-1], rng)


# --- forward ---------------------------------------------------------------------


def test_forward_zero_net_maps_to_zero():
    net = mlp(([[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0]))
    batch = np.array([[3.0, -4.0], [1.0, 2.0]], dtype=np.float32)
    assert np.array_equal(nn.forward(net, batch), np.zeros((2, 2), dtype=np.float32))


def test_forward_identity_layer():
    net = mlp(([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0]))
    out = nn.forward(net, np.array([[1.0, 2.0]], dtype=np.float32))
    assert np.array_equal(out, np.array([[1.0, 2.0]], dtype=np.float32))


def test_forward_two_layer_hand_computed():
    # hand matrix multiplication: z1 = [1.5, -2] -> relu [1.5, 0]; z2 = [1.75, 2.75]
    net = mlp(
        ([[1.0, -1.0], [2.0, 0.5]], [0.5, -1.0]),
        ([[1.0, 2.0], [-1.0, 1.0]], [0.25, -0.25]),
    )
    out = nn.forward(net, np.array([[1.0, 0.0]], dtype=np.float32))
    assert np.allclose(out, [[1.75, 2.75]], atol=1e-6)


def test_forward_dim_mismatch_names_both_dims():
    net = rand_net(np.random.default_rng(0), (3, 4, 2))
    with pytest.raises(ShapeError, match="5.*3|3.*5"):
        nn.forward(net, np.zeros((2, 5), dtype=np.float32))


def test_forward_never_applies_softmax():
    # the last layer emits raw logits: outputs are unconstrained affine values
    net = mlp(([[2.0], [0.0]], [1.0]))
    out = nn.forward(net, np.array([[10.0, 0.0]], dtype=np.float32))
    assert np.allclose(out, [[21.0]])  # a softmax row would sum to 1


def test_network_rejects_non_composing_layers():
    with pytest.raises(ShapeError):
        mlp(
            ([[1.0, 0.0]], [0.0, 0.0]),
            ([[1.0], [1.0], [1.0]], [0.0]),
        )
    with pytest.raises(ConfigError, match="^network needs at least one layer$"):
        mlp()
    with pytest.raises(ShapeError, match="^layer 0: weight must be 2-d and bias 1-d$"):
        mlp(([1.0, 0.0], [0.0, 0.0]))
    with pytest.raises(ShapeError, match="^layer 0: weight out-dim 2 vs bias dim 1$"):
        mlp(([[1.0, 0.0]], [0.0]))


# --- cross entropy ----------------------------------------------------------------


def naive_cross_entropy(logits, labels):
    """Unstabilized float64 oracle."""
    e = np.exp(np.asarray(logits, dtype=np.float64))
    p = e / e.sum(axis=1, keepdims=True)
    return float(np.mean(-np.log(p[np.arange(len(labels)), labels])))


def test_cross_entropy_uniform_logits():
    loss, grad = nn.cross_entropy(np.zeros((1, 2), dtype=np.float32), np.array([0]))
    assert loss == pytest.approx(math.log(2), abs=1e-7)
    assert np.allclose(grad, [[-0.5, 0.5]], atol=1e-7)


def test_cross_entropy_is_stable_for_huge_logits():
    loss, grad = nn.cross_entropy(np.array([[1000.0, 0.0]], dtype=np.float32), np.array([0]))
    assert loss == pytest.approx(0.0, abs=1e-6)
    assert np.isfinite(grad).all()


def test_cross_entropy_matches_naive_float64_oracle():
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(2, 5)).astype(np.float32)
    labels = np.array([3, 1])
    loss, _ = nn.cross_entropy(logits, labels)
    assert loss == pytest.approx(naive_cross_entropy(logits, labels), abs=1e-5)


@given(st.integers(1, 8), st.integers(2, 7), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_cross_entropy_oracle_property(batch, classes, seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=3.0, size=(batch, classes)).astype(np.float32)
    labels = rng.integers(0, classes, size=batch)
    loss, grad = nn.cross_entropy(logits, labels)
    assert loss == pytest.approx(naive_cross_entropy(logits, labels), abs=1e-5)
    # gradient rows sum to 0: (softmax - onehot)/B
    assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-6)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(IndexError, match="label"):
        nn.cross_entropy(np.zeros((1, 3), dtype=np.float32), np.array([3]))
    with pytest.raises(IndexError, match="label"):
        nn.cross_entropy(np.zeros((1, 3), dtype=np.float32), np.array([-1]))


# --- distillation loss ------------------------------------------------------------


def test_distill_fixed_point():
    x = np.array([[0.5, -1.5], [2.0, 0.0]], dtype=np.float32)
    loss, grad = nn.distill_loss(x, x.copy())
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros_like(x))


def test_distill_arithmetic():
    loss, grad = nn.distill_loss(
        np.array([[2.0, 0.0]], dtype=np.float32), np.array([[0.0, 0.0]], dtype=np.float32)
    )
    assert loss == pytest.approx(1.0)
    assert np.allclose(grad, [[0.5, 0.0]])
    assert grad.dtype == np.float32


def test_distill_matches_float64_bruteforce():
    rng = np.random.default_rng(11)
    logits = rng.normal(size=(3, 4)).astype(np.float32)
    targets = rng.normal(size=(3, 4)).astype(np.float32)
    loss, _ = nn.distill_loss(logits, targets)
    brute = 0.0
    for i in range(3):
        for j in range(4):
            brute += abs(float(logits[i, j]) - float(targets[i, j]))
    assert loss == pytest.approx(brute / 12.0, abs=1e-6)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**31 - 1))
@example(rows=1, cols=1, seed=3)  # the smallest block
@settings(max_examples=60, deadline=None)
def test_distill_oracle_property(rows, cols, seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(rows, cols)).astype(np.float32)
    targets = rng.normal(size=(rows, cols)).astype(np.float32)
    loss, grad = nn.distill_loss(logits, targets)
    expected = float(np.mean(np.abs(logits.astype(np.float64) - targets.astype(np.float64))))
    assert loss == pytest.approx(expected, abs=1e-6)
    assert grad.shape == logits.shape


def test_distill_shape_mismatch():
    with pytest.raises(ShapeError):
        nn.distill_loss(np.zeros((1, 2), dtype=np.float32), np.zeros((2, 2), dtype=np.float32))


# --- adam -------------------------------------------------------------------------


def adam_oracle(p0: float, grads: list, lr=0.001, b1=0.9, b2=0.999, eps=1e-8) -> list:
    """Hand-coded float64 trajectory oracle for one scalar parameter."""
    p, m, v = float(p0), 0.0, 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        p = p - lr * m_hat / (math.sqrt(v_hat) + eps)
        out.append(p)
    return out


def test_adam_zero_gradient_keeps_params():
    p = [np.array([1.0, -2.0]), np.array([[3.0]])]
    g = [np.zeros(2), np.zeros((1, 1))]
    state = nn.AdamState.fresh(p, nn.AdamParams())
    p2, state2 = nn.adam_step(p, g, state)
    assert all(np.array_equal(a, b) for a, b in zip(p, p2))
    assert state2.t == 1


def test_adam_first_step_hand_value():
    p, _ = nn.adam_step([np.array([0.0])], [np.array([1.0])], nn.AdamState.fresh([np.array([0.0])], nn.AdamParams()))
    assert p[0][0] == pytest.approx(-0.001 / (1 + 1e-8), abs=1e-12)


def test_adam_two_steps_match_oracle():
    params = [np.array([0.0])]
    state = nn.AdamState.fresh(params, nn.AdamParams())
    seen = []
    for _ in range(2):
        params, state = nn.adam_step(params, [np.array([1.0])], state)
        seen.append(float(params[0][0]))
    expected = adam_oracle(0.0, [1.0, 1.0])
    assert seen == pytest.approx(expected, abs=1e-9)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_adam_is_pure(seed):
    rng = np.random.default_rng(seed)
    p = [rng.normal(size=3), rng.normal(size=(2, 2))]
    g = [rng.normal(size=3), rng.normal(size=(2, 2))]
    state = nn.AdamState.fresh(p, nn.AdamParams())
    p_bak = [a.copy() for a in p]
    out1, st1 = nn.adam_step(p, g, state)
    out2, st2 = nn.adam_step(p, g, state)
    assert all(np.array_equal(a, b) for a, b in zip(out1, out2))
    assert all(np.array_equal(a, b) for a, b in zip(st1.m, st2.m))
    assert st1.t == st2.t == 1
    assert all(np.array_equal(a, b) for a, b in zip(p, p_bak))  # inputs untouched


def test_adam_shape_mismatch():
    state = nn.AdamState.fresh([np.zeros(2)], nn.AdamParams())
    with pytest.raises(ShapeError):
        nn.adam_step([np.zeros(2)], [np.zeros(3)], state)


# --- training loops ---------------------------------------------------------------


def test_train_supervised_zero_epochs_is_noop():
    data = synth_blobs(2, 5, 3, 0.5, seed=1)
    net = rand_net(np.random.default_rng(2), (3, 4, 2))
    before = [p.copy() for p in net.parameters()]
    member = nn.Member(net, data.features, data.labels, np.random.default_rng(3))
    (report,) = nn.train_supervised([member], 0, 4, nn.AdamParams())
    assert report.epochs == 0 and report.epoch_losses == []
    assert all(np.array_equal(a, b) for a, b in zip(before, net.parameters()))


def test_train_supervised_fits_separable_blobs():
    data = synth_blobs(2, 40, 4, 0.1, seed=5)
    net = rand_net(np.random.default_rng(6), (4, 8, 2))
    nn.train_supervised([nn.Member(net, data.features, data.labels, np.random.default_rng(7))], 50, 8, nn.AdamParams())
    assert nn.accuracy(net, data) >= 0.95


def test_train_supervised_is_bitwise_deterministic():
    data = synth_blobs(3, 10, 4, 0.5, seed=8)
    runs = []
    for _ in range(2):
        net = rand_net(np.random.default_rng(9), (4, 6, 3))
        member = nn.Member(net, data.features, data.labels, np.random.default_rng(10))
        nn.train_supervised([member], 5, 4, nn.AdamParams())
        runs.append([p.copy() for p in net.parameters()])
    assert all(np.array_equal(a, b) for a, b in zip(*runs))


def test_train_supervised_rejects_empty_dataset():
    empty = synth_blobs(2, 1, 3, 0.5, seed=1).take(np.array([], dtype=np.int64))
    net = rand_net(np.random.default_rng(0), (3, 2))
    with pytest.raises(ConfigError, match="empty"):
        member = nn.Member(net, empty.features, empty.labels, np.random.default_rng(0))
        nn.train_supervised([member], 1, 4, nn.AdamParams())


def test_train_supervised_divergence_names_epoch():
    data = synth_blobs(2, 10, 3, 0.5, seed=3)
    net = rand_net(np.random.default_rng(4), (3, 4, 2))
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="epoch"):
        member = nn.Member(net, data.features, data.labels, np.random.default_rng(5))
        nn.train_supervised([member], 5, 4, nn.AdamParams(lr=1e30))


def member(dims=(3, 4, 2), targets=None, **kw):
    """A member over 10 rows of 3-feature, 2-class blobs, with labels or the given targets."""
    data = synth_blobs(2, 5, 3, 0.5, seed=1)
    net = rand_net(np.random.default_rng(0), dims)
    return nn.Member(net, data.features, data.labels if targets is None else targets, np.random.default_rng(1), **kw)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: nn.forward(rand_net(np.random.default_rng(0), (3, 2)), np.zeros(3)), ShapeError,
         r"^batch must be 2-d, got shape \(3,\)$"),
        (lambda: nn.cross_entropy(np.zeros((2, 3)), np.array([0])), ShapeError, r"^logits \(2, 3\) vs labels \(1,\)$"),
        (lambda: nn.adam_step([np.zeros(2)], [], nn.AdamState.fresh([np.zeros(2)], nn.AdamParams())), ShapeError,
         "^param/grad/state length mismatch: 1/0/1$"),
        (lambda: nn.train_supervised([member()], 1, 0, nn.AdamParams()), ConfigError,
         "^batch_size must be >= 1, got 0$"),
        (lambda: nn.train_supervised([member()], -1, 4, nn.AdamParams()), ConfigError, "^epochs must be >= 0, got -1$"),
        (lambda: nn.train_supervised([member(), member((3, 4, 3))], 1, 4, nn.AdamParams()), ConfigError,
         "^members of one call need one input dim and class count$"),
        (lambda: nn.train_supervised([member(targets=np.zeros(9, np.int64))], 1, 4, nn.AdamParams()), ShapeError,
         "^inputs rows 10 vs target rows 9$"),
        (lambda: nn.train_supervised([member(rows=np.array([0, 10]))], 1, 4, nn.AdamParams()), IndexError,
         r"^rows outside 0\.\.9$"),
        (lambda: nn.train_distill([member(targets=np.zeros((10, 3), np.float32))], 1, 4, nn.AdamParams()), ShapeError,
         r"^targets of shape \(3,\) for 2 classes$"),
    ],
    ids=[
        "forward-1d-batch",
        "cross-entropy-shapes",
        "adam-lengths",
        "batch-size-0",
        "negative-epochs",
        "class-counts",
        "target-rows",
        "rows-out-of-range",
        "distill-target-width",
    ],
)
def test_bad_arguments_are_refused_before_any_step(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize(
    "duplicate",
    [nn.Network.copy, copy.copy, copy.deepcopy, lambda net: pickle.loads(pickle.dumps(net))],
    ids=["copy", "copy.copy", "deepcopy", "pickle"],
)
def test_copy_and_original_train_independently(duplicate):
    data = synth_blobs(3, 10, 4, 0.5, seed=8)
    fresh = rand_net(np.random.default_rng(9), (4, 6, 5, 3))
    grouped = rand_net(np.random.default_rng(11), (4, 6, 5, 3))
    partner = rand_net(np.random.default_rng(12), (4, 7, 3))
    nn.train_supervised(
        [nn.Member(n, data.features, data.labels, np.random.default_rng(k)) for k, n in enumerate((grouped, partner))],
        1, 4, nn.AdamParams(),
    )
    # after a grouped call, both networks' layers view that group's one parameter vector
    assert grouped.layers[0].weight.base is partner.layers[0].weight.base
    for net in (fresh, grouped):
        twin = duplicate(net)
        assert share_no_parameter([net, twin, partner])
        for trained, other in ((twin, net), (net, twin)):
            untouched = [p.copy() for p in other.parameters()]
            start = [p.copy() for p in trained.parameters()]
            member = nn.Member(trained, data.features, data.labels, np.random.default_rng(10))
            nn.train_supervised([member], 2, 4, nn.AdamParams())
            assert all(np.array_equal(a, b) for a, b in zip(untouched, other.parameters()))
            assert not any(np.array_equal(a, b) for a, b in zip(start, trained.parameters()))
        assert share_no_parameter([net, twin, partner])


def test_train_distill_fixed_point_keeps_weights():
    rng = np.random.default_rng(12)
    net = rand_net(rng, (3, 5, 2))
    inputs = rng.normal(size=(6, 3)).astype(np.float32)
    targets = nn.forward(net, inputs)
    before = [p.copy() for p in net.parameters()]
    (report,) = nn.train_distill([nn.Member(net, inputs, targets, np.random.default_rng(13))], 2, 3, nn.AdamParams())
    assert report.epoch_losses[0] == 0.0
    assert all(np.array_equal(a, b) for a, b in zip(before, net.parameters()))


def test_train_distill_loss_strictly_decreases():
    net = mlp(([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0]))
    inputs = np.array([[1.0, 1.0]], dtype=np.float32)
    targets = nn.forward(net, inputs) + 0.5
    (report,) = nn.train_distill([nn.Member(net, inputs, targets, np.random.default_rng(14))], 10, 1, nn.AdamParams())
    losses = report.epoch_losses
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_train_distill_zero_epochs_is_noop():
    net = mlp(([[1.0]], [0.0]))
    ones = np.ones((2, 1), dtype=np.float32)
    (report,) = nn.train_distill([nn.Member(net, ones, ones, np.random.default_rng(0))], 0, 1, nn.AdamParams())
    assert report.epochs == 0


# --- accuracy ---------------------------------------------------------------------


def test_accuracy_perfect_net():
    data = synth_blobs(2, 30, 4, 0.05, seed=20)
    net = rand_net(np.random.default_rng(21), (4, 16, 2))
    nn.train_supervised([nn.Member(net, data.features, data.labels, np.random.default_rng(22))], 60, 8, nn.AdamParams())
    assert nn.accuracy(net, data) == 1.0


def test_accuracy_ties_break_to_lowest_class():
    net = mlp(([[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0]))
    from fedmd.data import Dataset

    data = Dataset(np.ones((4, 2), dtype=np.float32), np.zeros(4, dtype=np.int64), 2)
    assert nn.accuracy(net, data) == 1.0


def test_accuracy_chance_band_for_random_labels():
    from fedmd.data import Dataset

    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        feats = rng.normal(size=(600, 8)).astype(np.float32)
        labels = rng.integers(0, 6, size=600)
        data = Dataset(feats, labels, 6)
        net = rand_net(np.random.default_rng(200 + seed), (8, 16, 6))
        assert 0.10 <= nn.accuracy(net, data) <= 0.24


def test_accuracy_rejects_empty_dataset():
    empty = synth_blobs(2, 1, 3, 0.5, seed=1).take(np.array([], dtype=np.int64))
    net = rand_net(np.random.default_rng(0), (3, 2))
    with pytest.raises(ConfigError, match="empty"):
        nn.accuracy(net, empty)


# --- convergence helper and gradient suite -----------------------------------------


def test_train_to_convergence_stops_on_stall():
    data = synth_blobs(2, 40, 4, 0.05, seed=30)
    net = rand_net(np.random.default_rng(31), (4, 8, 2))
    member = nn.Member(net, data.features, data.labels, np.random.default_rng(32), val=data)
    (report,) = nn.train_to_convergence(
        [member], 8, nn.AdamParams(), max_epochs=100, patience=3, min_improvement=0.001
    )
    assert report.epochs < 100  # separable blobs saturate well before the cap


def test_gradients_match_finite_differences():
    cases = nn.gradient_check(num_nets=12, seed=123)
    assert max(c.max_rel_err for c in cases) < nn.GRADCHECK_TOLERANCE
    assert {c.loss for c in cases} == {"xent", "mae"}


# --- fused training step against the list-based reference (reference_util) --------

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "configs")


def config_architectures():
    archs = []
    for name in ("blobs10.json", "noniid.json"):
        for arch in cli.parse_config(os.path.join(CONFIGS, name)).architectures:
            if arch not in archs:
                archs.append(arch)
    return archs


TRAIN = synth_blobs(6, 15, 16, 1.5, seed=3)  # 90 rows: batches of 32 leave a ragged 26
OTHER_TRAIN = synth_blobs(6, 15, 16, 1.5, seed=9)
VAL = synth_blobs(6, 10, 16, 1.5, seed=3, sample_stream=1)
TARGETS = (3.0 * np.random.default_rng(4).standard_normal((TRAIN.n, 6))).astype(np.float32)
TRAJECTORIES = {
    "supervised": lambda net: nn.train_supervised(
        [nn.Member(net, TRAIN.features, TRAIN.labels, np.random.default_rng(5))], 4, 32, nn.AdamParams()
    )[0],
    "distill-mae": lambda net: nn.train_distill(
        [nn.Member(net, TRAIN.features, TARGETS, np.random.default_rng(6))], 4, 32, nn.AdamParams()
    )[0],
    "convergence": lambda net: nn.train_to_convergence(
        [nn.Member(net, TRAIN.features, TRAIN.labels, np.random.default_rng(8), val=VAL)],
        32, nn.AdamParams(lr=0.01), max_epochs=60, patience=3, min_improvement=0.02,
    )[0],
}


@pytest.mark.parametrize("kind", sorted(TRAJECTORIES))
@pytest.mark.parametrize("arch", config_architectures(), ids=str)
def test_fused_training_matches_list_reference_bitwise(monkeypatch, arch, kind):
    assert TRAIN.n % 32 != 0
    train = TRAJECTORIES[kind]
    net = nn.build_network(16, arch, 6, np.random.default_rng(0))
    start = [p.copy() for p in net.parameters()]
    ref_net = net.copy()
    report = train(net)
    with monkeypatch.context() as patched:
        patched.setattr(nn, "_run_epochs", reference_group_run_epochs)
        patched.setattr(nn, "forward", reference_forward)
        ref_report = train(ref_net)
    assert report.epoch_losses == ref_report.epoch_losses
    assert all(np.array_equal(a, b) for a, b in zip(net.parameters(), ref_net.parameters()))
    assert not any(np.array_equal(a, b) for a, b in zip(start, net.parameters()))
    if kind == "convergence":
        assert 1 < report.epochs < 60  # stopped on patience, not at the cap


# revisit's lone 18-row steps, the 3-class noniid groups with their ragged last
# batch, a ten-member blobs10 group and one large block
@pytest.mark.parametrize("shape", [(1, 18, 6), (2, 32, 3), (2, 26, 3), (10, 32, 6), (1, 256, 6)], ids=str)
def test_stacked_cross_entropy_matches_reference_per_block(shape):
    k, n, c = shape
    rng = np.random.default_rng(n * c + k)
    logits = (3.0 * rng.standard_normal(shape)).astype(np.float32)
    labels = rng.integers(0, c, size=(k, n))
    logits[:, 0] = 1.5  # every column ties for the maximum
    logits[:, 1, [0, -1]] = logits[:, 1].max(axis=1, keepdims=True) + 1.0  # the first and last tie
    labels[:, 1] = c - 1
    losses, grad = nn._cross_entropy(logits, labels, np.empty_like(logits))
    for b in range(k):
        ref_loss, ref_grad = reference_cross_entropy(logits[b], labels[b])
        assert losses[b] == ref_loss
        assert np.array_equal(grad[b], ref_grad)


# --- lockstep groups against their members trained alone ------------------------


def canonical_nets():
    return [nn.build_network(16, arch, 6, np.random.default_rng(k)) for k, arch in enumerate(config_architectures())]


@pytest.mark.parametrize("loss", ["xent", "mae"])
def test_group_trains_exactly_like_its_members_alone(loss):
    assert TRAIN.n % 32 != 0 and len(config_architectures()) == 11
    nets = canonical_nets()
    alone = [net.copy() for net in nets]
    # odd members train on other rows, so the group stacks two data sets
    data = [TRAIN if k % 2 == 0 else OTHER_TRAIN for k in range(len(nets))]
    targets = [d.labels if loss == "xent" else TARGETS for d in data]
    members = [
        nn.Member(net, d.features, y, np.random.default_rng(100 + k))
        for k, (net, d, y) in enumerate(zip(nets, data, targets))
    ]
    if loss == "xent":
        batch_loss, train = nn._cross_entropy, nn.train_supervised
    else:
        batch_loss, train = nn._distill_loss, nn.train_distill
    reports = nn._run_epochs(members, batch_loss, 4, 32, nn.AdamParams())
    for k, net in enumerate(alone):
        member = nn.Member(net, data[k].features, targets[k], np.random.default_rng(100 + k))
        (ref,) = train([member], 4, 32, nn.AdamParams())
        assert reports[k].epoch_losses == ref.epoch_losses
        assert all(np.array_equal(a, b) for a, b in zip(nets[k].parameters(), net.parameters()))
    assert share_no_parameter(nets + alone)


def test_group_convergence_shrinks_and_matches_members_alone():
    nets = canonical_nets()
    alone = [net.copy() for net in nets]
    picks = [np.random.default_rng(200 + k).permutation(TRAIN.n)[:80] for k in range(len(nets))]
    opt = nn.AdamParams(lr=0.01)
    kw = dict(max_epochs=60, patience=3, min_improvement=0.02)
    members = [
        nn.Member(net, TRAIN.features, TRAIN.labels, np.random.default_rng(300 + k), rows, VAL)
        for k, (net, rows) in enumerate(zip(nets, picks))
    ]
    reports = nn.train_to_convergence(members, 32, opt, **kw)
    epochs = [r.epochs for r in reports]
    assert len(set(epochs)) > 1 and max(epochs) < 60, epochs  # members leave at different epochs
    for k, net in enumerate(alone):
        own = TRAIN.take(picks[k])
        member = nn.Member(net, own.features, own.labels, np.random.default_rng(300 + k), val=VAL)
        (ref,) = nn.train_to_convergence([member], 32, opt, **kw)
        assert reports[k].epoch_losses == ref.epoch_losses
        assert all(np.array_equal(a, b) for a, b in zip(nets[k].parameters(), net.parameters()))
    assert share_no_parameter(nets + alone)


def test_group_divergence_names_the_member_and_shares_no_parameter():
    nets = canonical_nets()[:3]
    poisoned = TRAIN.features.copy()
    poisoned[5, 0] = np.inf
    members = [
        nn.Member(net, x, TRAIN.labels, np.random.default_rng(k))
        for k, (net, x) in enumerate(zip(nets, (TRAIN.features, poisoned, TRAIN.features)))
    ]
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="epoch 0") as err:
        nn._run_epochs(members, nn._cross_entropy, 2, 32, nn.AdamParams())
    assert err.value.member == 1
    assert share_no_parameter(nets)


def test_members_of_unequal_row_counts_train_in_one_call_each_as_alone():
    # 90, 80, 90, 80 and 60 rows: one call steps members 0 and 2, then 1 and 3, then 4
    picks = [None, np.arange(80), None, np.arange(10, 90), np.arange(60)]
    opt = nn.AdamParams(lr=0.01)
    kw = dict(max_epochs=40, patience=3, min_improvement=0.02)

    def member(net, k, seed, features=TRAIN.features):
        return nn.Member(net, features, TRAIN.labels, np.random.default_rng(seed + k), picks[k], VAL)

    def train(nets, ks, seed):
        members = [member(net, k, seed) for net, k in zip(nets, ks)]
        return nn.train_to_convergence(members, 32, opt, **kw), nn._run_epochs(members, nn._cross_entropy, 3, 32, opt)

    nets = canonical_nets()[:5]
    alone = [net.copy() for net in nets]
    converged, stepped = train(nets, range(5), 300)
    assert len({r.epochs for r in converged}) > 1, [r.epochs for r in converged]
    for k, net in enumerate(alone):
        (ref_converged,), (ref_stepped,) = train([net], [k], 300)
        assert converged[k].epoch_losses == ref_converged.epoch_losses
        assert stepped[k].epoch_losses == ref_stepped.epoch_losses
        assert all(np.array_equal(a, b) for a, b in zip(nets[k].parameters(), net.parameters()))
    assert share_no_parameter(nets + alone)

    poisoned = TRAIN.features.copy()
    poisoned[20, 0] = np.inf  # a row of member 3 only, in the second group
    members = [member(net, k, 500, poisoned if k == 3 else TRAIN.features) for k, net in enumerate(nets)]
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="epoch 0") as err:
        nn._run_epochs(members, nn._cross_entropy, 2, 32, opt)
    assert err.value.member == 3
    assert share_no_parameter(nets)


def test_members_share_one_source_when_their_arrays_hold_the_same_bits():
    x, y = TRAIN.features.copy(), TARGETS.copy()
    x[0, 0], y[0, 0], y[1, 1] = 0.0, 0.0, np.nan

    def shared(*pairs):  # _shared_rows reads only a member's arrays and rows
        return nn._shared_rows([nn.Member(None, a, b, None) for a, b in pairs])

    # distinct arrays of equal bits, NaN included, which == never equates
    inputs, targets, rows = shared((x, y), (x.copy(), y.copy()), (x.copy(), y.copy()))
    assert inputs.shape[0] == targets.shape[0] == TRAIN.n and rows == [None] * 3
    assert np.array_equal(inputs, x) and np.array_equal(targets, y, equal_nan=True)
    # a zero's sign is a bit that == ignores: each member keeps its own
    for flip in (0, 1):
        neg = (x.copy(), y.copy())
        neg[flip][0, 0] = -0.0
        inputs, targets, rows = shared((x, y), neg)
        assert inputs.shape[0] == targets.shape[0] == 2 * TRAIN.n
        assert [r.tolist() for r in rows] == [list(range(TRAIN.n)), list(range(TRAIN.n, 2 * TRAIN.n))]
        assert np.signbit((inputs, targets)[flip][TRAIN.n, 0]) and not np.signbit((inputs, targets)[flip][0, 0])


def test_forward_matches_the_training_forward():
    # the evaluation forward keeps no cache; it must give the training step's logits
    for net in canonical_nets():
        group = nn._Group([net], VAL.n)
        plan = group.plan(VAL.n)
        plan.x[0] = VAL.features
        group.gradients(plan, VAL.labels[None], nn._cross_entropy)
        assert np.array_equal(nn.forward(net, VAL.features), plan.logits[0])
