"""A whole run against FedMD written out plainly (``oracle_util``)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmd.errors import ConfigError
from fedmd.experiments import config_from_dict, config_to_dict, run_experiment

from oracle_util import oracle_rows, run_rows

# mixed depths and widths, unequal weights, a subset smaller than the public
# set, ragged last batches in every phase, members that converge at different
# epochs, and the pooled fit
IID = {
    "name": "oracle-iid",
    "parties": 4,
    "rounds": 4,
    "seed": 5,
    "weights": [1, 2, 5, 3],
    "subset_size": 90,
    "digest_epochs": 3,
    "digest_batch_size": 16,
    "revisit_epochs": 2,
    "revisit_batch_size": 5,
    "lr": 0.01,
    "max_epochs": 60,
    "patience": 6,
    "transfer_batch_size": 16,
    "data": {"kind": "blobs", "classes": 4, "dim": 8, "spread": 1.5, "public_spread": 3.0,
             "public_per_class": 50, "pool_per_class": 12, "test_per_class": 25},
    "partition": {"mode": "iid", "per_class": 3},
    "architectures": [[12], [10, 6], [8, 8], [12]],
    "pooled": True,
}
# the subclass task
NONIID = dict(
    IID,
    name="oracle-noniid",
    parties=2,
    weights=[0.25, 0.75],
    data=dict(IID["data"], classes=6),
    partition={"mode": "noniid", "per_class": 5, "subclass_map": {"0": 0, "1": 0, "2": 1, "3": 1, "4": 2, "5": 2}},
    architectures=[[16], [8, 12]],
    pooled=False,
)


@pytest.fixture(scope="module", params=[IID, NONIID], ids=["iid", "noniid"])
def case(request):
    cfg = config_from_dict(request.param)
    return cfg, oracle_rows(cfg)


@pytest.mark.parametrize("kind", ["bus", "tcp"])
def test_run_matches_the_plain_fedmd_oracle(case, kind):
    cfg, oracle = case
    m = cfg.collab.parties
    assert len(oracle) == m + m * cfg.collab.rounds + (m if cfg.pooled else 0)
    log, _ = run_experiment(cfg, transport_kind=kind)
    assert run_rows(log) == oracle


SUBCLASS_MAP = {"0": 0, "1": 0, "2": 1, "3": 1, "4": 2, "5": 2}
# a batch of one row, of a few rows, and of more rows than any set holds
BATCHES = st.sampled_from([1, 3, 1000])


@st.composite
def small_configs(draw):
    """A small raw config: 1-4 parties (noniid: 1-2) of depth 0-3, weights with zeros, phases of 0 epochs."""
    noniid = draw(st.booleans())
    # hypothesis favours a list's first values: most draws are multi-party, and few give every weight 0
    m = draw(st.sampled_from([2, 1] if noniid else [3, 4, 2, 1]))
    return {
        "name": "drawn",
        "parties": m,
        "rounds": draw(st.integers(0, 3)),
        "seed": draw(st.integers(0, 3)),
        "weights": draw(st.lists(st.sampled_from([1, 2.5, 0]), min_size=m, max_size=m)),
        "subset_size": draw(st.sampled_from([1, 7, 10_000])),
        "digest_epochs": draw(st.integers(0, 3)),
        "digest_batch_size": draw(BATCHES),
        "revisit_epochs": draw(st.integers(0, 2)),
        "revisit_batch_size": draw(BATCHES),
        "lr": draw(st.sampled_from([0.001, 0.05])),
        "max_epochs": draw(st.integers(0, 8)),
        "patience": draw(st.integers(1, 3)),
        "transfer_batch_size": draw(BATCHES),
        "val_fraction": draw(st.sampled_from([0, 0.2])),
        "data": {"kind": "blobs", "classes": 6 if noniid else draw(st.integers(2, 3)), "dim": draw(st.integers(2, 5)),
                 "spread": 1.0, "public_spread": 2.0, "public_per_class": draw(st.integers(2, 8)),
                 "pool_per_class": 6, "test_per_class": 3},
        "partition": {"mode": "noniid", "per_class": draw(st.integers(1, 2)), "subclass_map": SUBCLASS_MAP}
        if noniid else {"mode": "iid", "per_class": draw(st.integers(1, 2))},
        "architectures": [draw(st.lists(st.integers(1, 8), max_size=3)) for _ in range(m)],
        "pooled": draw(st.booleans()),
    }


def picked(out, raw):
    """The keys of ``out`` that ``raw`` sets, in nested objects too."""
    return {k: picked(out[k], v) if isinstance(v, dict) else out[k] for k, v in raw.items()}


@given(small_configs())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_drawn_config_reads_back_equal_from_its_json(raw):
    try:
        cfg = config_from_dict(raw)
    except ConfigError:  # every weight 0
        return
    out = json.loads(json.dumps(config_to_dict(cfg)))
    assert config_from_dict(out) == cfg
    total = sum(raw["weights"])
    assert picked(out, raw) == dict(raw, weights=[w / total for w in raw["weights"]])


def outcome(rows):
    """``rows()``, or the ``ConfigError`` it raised."""
    try:
        return rows()
    except ConfigError as exc:
        return ConfigError, str(exc)


@given(small_configs())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_drawn_run_matches_the_plain_fedmd_oracle(raw):
    expected = outcome(lambda: oracle_rows(config_from_dict(raw)))
    for kind in ("bus", "tcp"):
        assert outcome(lambda: run_rows(run_experiment(config_from_dict(raw), kind)[0])) == expected
