"""The benchmark in ``perfbench/`` finds fedmd's functions by name; these tests keep those names resolvable.

A rename of, say, ``protocol.compute_scores`` or ``experiments.transfer_learn``
would otherwise only show when the benchmark next runs.
"""

import os
import sys

import fedmd
import fedmd.experiments  # noqa: F401  loads every module the tracer wraps, as perfbench does before installing it

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")
sys.path.insert(0, PERFBENCH)

import selftest  # noqa: E402
import tracer  # noqa: E402


def _resolve(path, attr):
    owner = fedmd
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_every_traced_name_resolves():
    sites = [site for sites in tracer.TARGETS.values() for site in sites]
    before = [_resolve(*site) for site in sites]
    t = tracer.Tracer()
    try:
        t.install(fedmd)
        assert all(_resolve(*site) is not old for site, old in zip(sites, before))
    finally:
        t.uninstall()
    assert all(_resolve(*site) is old for site, old in zip(sites, before))


# the traced names whose figures time the training phases, the evaluations and the round arithmetic
PHASE_NAMES = (
    "nn.train_to_convergence", "nn.train_distill", "nn.train_supervised", "nn.accuracy", "nn.distill_loss",
    "protocol.compute_scores", "protocol.aggregate",
)


def test_a_bus_run_calls_every_traced_phase():
    # a refactor that bypasses one of these names would leave its benchmark figure at 0
    from fedmd import experiments

    tiny = {"parties": 2, "rounds": 1, "subset_size": 32, "max_epochs": 5, "pooled": False,
            "architectures": [[8], [8]], "data": {"classes": 3, "dim": 4, "public_per_class": 30,
                                                  "pool_per_class": 12, "test_per_class": 30}}
    t = tracer.Tracer()
    try:
        t.install(fedmd)
        experiments.run_experiment(experiments.config_from_dict(tiny), "bus")
    finally:
        t.uninstall()
    spans = t.spans()
    calls = {name: int((spans["name"] == t.name_id(name)).sum()) for name in PHASE_NAMES}
    assert all(calls.values()), calls


def test_benchmark_checks_pass_their_self_test():
    selftest.main()


def test_runs_call_run_fedmd_through_the_experiments_module(monkeypatch):
    # perfbench's Runner replaces experiments.run_fedmd to capture the log of each run
    from fedmd import experiments

    logs = []
    inner = experiments.run_fedmd

    def recorder(*args, **kwargs):
        logs.append(inner(*args, **kwargs))
        return logs[-1]

    monkeypatch.setattr(experiments, "run_fedmd", recorder)
    tiny = {"parties": 2, "rounds": 1, "subset_size": 32, "max_epochs": 5, "pooled": False,
            "architectures": [[8], [8]]}
    iid = dict(tiny, data={"classes": 3, "dim": 4, "public_per_class": 30,
                           "pool_per_class": 12, "test_per_class": 30})
    noniid = dict(tiny, data={"classes": 4, "dim": 4, "public_per_class": 30,
                              "pool_per_class": 16, "test_per_class": 20},
                  partition={"mode": "noniid", "per_class": 4,
                             "subclass_map": {"0": 0, "1": 0, "2": 1, "3": 1}})
    log, _ = experiments.run_experiment(experiments.config_from_dict(iid))
    probe = experiments.run_noniid_probe(experiments.config_from_dict(noniid))
    assert len(logs) == 2 and logs[0] is log
    assert probe.final == [logs[1].final_accuracy(k) for k in range(2)]
