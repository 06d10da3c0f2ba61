"""Dataset tests: IDX parsing, blob generation, both partitioners and the superclass relabel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedmd import nn
from fedmd.data import (
    Dataset,
    parse_idx,
    partition_iid,
    partition_noniid,
    synth_blobs,
    to_superclass,
)
from fedmd.errors import ConfigError, IdxParseError
from fedmd.experiments import BlobsSpec, ExperimentConfig, Partition, build_task
from fedmd.protocol import CollaborationConfig

from idx_util import encode_idx, quantize_back


# --- IDX --------------------------------------------------------------------------


def test_parse_idx_image_example():
    raw = bytes([0, 0, 0x08, 3]) + (1).to_bytes(4, "big") + (2).to_bytes(4, "big") + (
        2
    ).to_bytes(4, "big") + bytes([0, 255, 0, 255])
    arr = parse_idx(raw)
    assert arr.shape == (1, 2, 2)
    assert np.allclose(arr.reshape(-1), [0.0, 1.0, 0.0, 1.0])


def test_parse_idx_empty_stream():
    with pytest.raises(IdxParseError) as exc:
        parse_idx(b"")
    assert exc.value.offset == 0


def test_parse_idx_unknown_type_code():
    raw = bytes([0, 0, 0x0D, 1]) + (1).to_bytes(4, "big") + b"\x00"
    with pytest.raises(IdxParseError, match="type code"):
        parse_idx(raw)


def test_parse_idx_zero_dimensions():
    with pytest.raises(IdxParseError, match="zero dimensions"):
        parse_idx(bytes([0, 0, 0x08, 0]))


def test_parse_idx_truncated_payload_reports_offset():
    raw = encode_idx(np.arange(12, dtype=np.uint8).reshape(3, 4))[:-5]
    with pytest.raises(IdxParseError, match="payload") as exc:
        parse_idx(raw)
    assert exc.value.offset == len(raw)


def test_parse_idx_trailing_bytes():
    raw = encode_idx(np.arange(4, dtype=np.uint8)) + b"\x00"
    with pytest.raises(IdxParseError, match="trailing"):
        parse_idx(raw)


def test_parse_idx_labels_stay_raw():
    arr = parse_idx(encode_idx(np.array([0, 3, 9], dtype=np.uint8)))
    assert np.array_equal(arr, [0.0, 3.0, 9.0])


@given(
    st.integers(1, 3).flatmap(
        lambda ndim: arrays(
            np.uint8,
            st.tuples(*[st.integers(1, 5)] * ndim),
        )
    )
)
@settings(max_examples=80, deadline=None)
def test_idx_round_trip(arr):
    encoded = encode_idx(arr)
    parsed = parse_idx(encoded)
    assert parsed.shape == arr.shape
    assert encode_idx(quantize_back(parsed)) == encoded


# --- synthetic blobs ----------------------------------------------------------------


def test_synth_blobs_counts_and_labels():
    ds = synth_blobs(2, 1, 2, 0.5, seed=0)
    assert ds.n == 2
    assert sorted(ds.labels.tolist()) == [0, 1]


def test_synth_blobs_deterministic_per_seed():
    a = synth_blobs(3, 4, 5, 1.0, seed=42)
    b = synth_blobs(3, 4, 5, 1.0, seed=42)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    c = synth_blobs(3, 4, 5, 1.0, seed=43)
    assert not np.array_equal(a.features, c.features)


def test_synth_blobs_sample_stream_shares_centers():
    a = synth_blobs(3, 50, 4, 0.01, seed=7, sample_stream=0)
    b = synth_blobs(3, 50, 4, 0.01, seed=7, sample_stream=1)
    assert not np.array_equal(a.features, b.features)
    # tight clusters around shared centers: per-class means nearly coincide
    for c in range(3):
        ma = a.features[a.labels == c].mean(axis=0)
        mb = b.features[b.labels == c].mean(axis=0)
        assert np.linalg.norm(ma - mb) < 0.05


def test_synth_blobs_tight_clusters_are_learnable():
    train = synth_blobs(6, 60, 8, 0.01, seed=9, sample_stream=0)
    test = synth_blobs(6, 30, 8, 0.01, seed=9, sample_stream=1)
    net = nn.build_network(8, (32,), 6, np.random.default_rng(10))
    member = nn.Member(net, train.features, train.labels, np.random.default_rng(11))
    nn.train_supervised([member], 100, 16, 0.001)
    assert nn.accuracy(net, test) >= 0.98


def test_synth_blobs_rejects_bad_spread():
    with pytest.raises(ConfigError):
        synth_blobs(2, 2, 2, 0.0, seed=0)


# --- iid partitioner ----------------------------------------------------------------


def assert_disjoint(rows):
    picked = np.concatenate(rows)
    assert len(np.unique(picked)) == len(picked)


def test_partition_iid_single_party_takes_everything():
    source = synth_blobs(3, 5, 4, 1.0, seed=1)
    rows = partition_iid(source, 1, 5, seed=2)
    assert len(rows) == 1
    assert np.array_equal(np.sort(rows[0]), np.arange(source.n))


def test_partition_iid_table_regime():
    # 10 parties x 3 per class x 6 classes -> 18 samples each
    source = synth_blobs(6, 40, 4, 1.0, seed=3)
    rows = partition_iid(source, 10, 3, seed=4)
    assert len(rows) == 10
    for picked in rows:
        assert len(picked) == 18
        values, counts = np.unique(source.labels[picked], return_counts=True)
        assert values.tolist() == [0, 1, 2, 3, 4, 5]
        assert counts.tolist() == [3] * 6


def test_partition_iid_sets_are_disjoint():
    source = synth_blobs(3, 20, 3, 1.0, seed=7)
    assert_disjoint(partition_iid(source, 4, 4, seed=8))


def test_partition_iid_insufficient_class_names_it():
    source = synth_blobs(3, 5, 3, 1.0, seed=9)
    with pytest.raises(ConfigError, match="class"):
        partition_iid(source, 3, 2, seed=10)


def test_partition_iid_deterministic():
    source = synth_blobs(3, 12, 3, 1.0, seed=11)
    a = partition_iid(source, 2, 3, seed=12)
    b = partition_iid(source, 2, 3, seed=12)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


@given(
    parties=st.integers(1, 4),
    per_class=st.integers(1, 4),
    classes=st.integers(1, 5),
    spare=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_partition_iid_picks_per_class_disjoint_rows_per_party(parties, per_class, classes, spare, seed):
    source = synth_blobs(classes, parties * per_class + spare, 2, 1.0, seed=0)
    rows = partition_iid(source, parties, per_class, seed)
    assert len(rows) == parties
    assert_disjoint(rows)
    for picked in rows:
        assert np.bincount(source.labels[picked], minlength=classes).tolist() == [per_class] * classes
    again = partition_iid(source, parties, per_class, seed)
    assert all(np.array_equal(x, y) for x, y in zip(rows, again))


# --- noniid partitioner ---------------------------------------------------------------


def _subclass_source(num_sub, per_sub, seed):
    return synth_blobs(num_sub, per_sub, 4, 1.0, seed=seed)


def test_partition_noniid_smallest_instance():
    source = _subclass_source(2, 10, seed=20)
    rows, _ = partition_noniid(source, 2, 5, seed=21, mapping={0: 0, 1: 0})
    subs0, subs1 = (set(source.labels[r].tolist()) for r in rows)
    assert subs0 in ({0}, {1}) and subs1 in ({0}, {1}) and subs0 != subs1
    assert all(len(r) == 5 for r in rows)


def test_partition_noniid_every_party_covers_all_superclasses():
    source = _subclass_source(6, 30, seed=22)
    mapping = {0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2}
    rows, _ = partition_noniid(source, 2, 5, seed=23, mapping=mapping)
    supers = to_superclass(source, mapping, 3)
    for picked in rows:
        assert sorted(set(supers.labels[picked].tolist())) == [0, 1, 2]


def test_partition_noniid_one_subclass_per_superclass_provenance_audit():
    source = _subclass_source(6, 30, seed=24)
    mapping = {0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2}
    rows, assignment = partition_noniid(source, 2, 6, seed=25, mapping=mapping)
    for k, idx in enumerate(rows):
        per_super = {}
        for i in idx.tolist():  # brute-force scan of sample provenance
            sub = int(source.labels[i])
            per_super.setdefault(mapping[sub], set()).add(sub)
        assert all(len(subs) == 1 for subs in per_super.values())
        assert {s: next(iter(v)) for s, v in per_super.items()} == assignment[k]


def test_partition_noniid_disjoint_across_parties():
    source = _subclass_source(4, 25, seed=26)
    mapping = {0: 0, 1: 0, 2: 1, 3: 1}
    rows, _ = partition_noniid(source, 2, 10, seed=27, mapping=mapping)
    assert_disjoint(rows)


def test_partition_noniid_too_many_parties():
    source = _subclass_source(4, 10, seed=28)
    mapping = {0: 0, 1: 0, 2: 1, 3: 1}
    with pytest.raises(ConfigError, match="superclass"):
        partition_noniid(source, 3, 2, seed=29, mapping=mapping)


def test_partition_noniid_incomplete_map():
    # the pool is relabeled before it is split, so the uncovered subclass is refused
    # before the partitioner finds too few rows of subclass 0
    partition = Partition("noniid", per_class=50, subclass_map={0: 0, 1: 0})
    cfg = ExperimentConfig(CollaborationConfig(parties=1, rounds=0), BlobsSpec(classes=3), partition, ((4,),))
    with pytest.raises(ConfigError, match=r"^subclass_map does not cover subclasses \[2\]$"):
        build_task(cfg)


@st.composite
def subclass_tasks(draw):
    """Superclass sizes, a shuffled subclass map over them, and a party count each superclass can cover."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    subs = draw(st.permutations(range(sum(sizes))))
    supers = [s for s, size in enumerate(sizes) for _ in range(size)]
    return dict(zip(subs, supers)), draw(st.integers(1, min(sizes)))


@given(
    task=subclass_tasks(),
    per_class=st.integers(1, 4),
    spare=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_partition_noniid_picks_one_assigned_subclass_per_superclass(task, per_class, spare, seed):
    mapping, parties = task
    source = synth_blobs(len(mapping), per_class + spare, 2, 1.0, seed=0)
    rows, assignment = partition_noniid(source, parties, per_class, seed, mapping)
    assert len(rows) == len(assignment) == parties
    assert_disjoint(rows)
    num_supers = len(set(mapping.values()))
    for picked, assigned in zip(rows, assignment):
        subs, counts = np.unique(source.labels[picked], return_counts=True)
        assert counts.tolist() == [per_class] * num_supers
        assert {mapping[int(sub)]: int(sub) for sub in subs} == assigned
    for s in range(num_supers):  # no two parties share a subclass
        assert len({assigned[s] for assigned in assignment}) == parties
    again, again_assignment = partition_noniid(source, parties, per_class, seed, mapping)
    assert again_assignment == assignment
    assert all(np.array_equal(x, y) for x, y in zip(rows, again))


def test_to_superclass_relabels():
    source = _subclass_source(4, 6, seed=32)
    mapping = {0: 0, 1: 0, 2: 1, 3: 1}
    view = to_superclass(source, mapping, 2)
    assert view.num_classes == 2
    assert np.array_equal(view.labels, np.array([mapping[int(c)] for c in source.labels]))
    assert view.features is source.features


def test_dataset_validates_labels():
    with pytest.raises(ConfigError):
        Dataset(np.zeros((2, 2), dtype=np.float32), np.array([0, 5]), 3)


@pytest.mark.parametrize(
    "make, message",
    [
        (
            lambda: Dataset(np.zeros((2, 2, 1), np.float32), np.zeros(2, np.int64), 3),
            r"^features must be 2-d, got shape \(2, 2, 1\)$",
        ),
        (lambda: Dataset(np.zeros((2, 2), np.float32), np.zeros(2, np.int64), 0), "^num_classes must be >= 1, got 0$"),
        (lambda: synth_blobs(2, 0, 3, 1.0, seed=0), "^num_classes, per_class and dim must all be >= 1$"),
    ],
    ids=["3-d-features", "no-classes", "no-rows-per-class"],
)
def test_bad_dataset_arguments_are_config_errors(make, message):
    with pytest.raises(ConfigError, match=message):
        make()
