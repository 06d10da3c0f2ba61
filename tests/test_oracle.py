"""A whole run against FedMD written out plainly (``oracle_util``)."""

import pytest

from fedmd.experiments import config_from_dict, run_experiment

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
