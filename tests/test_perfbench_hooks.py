"""The benchmark in ``perfbench/`` finds fedmd's functions by name; these tests keep those names resolvable.

A rename of, say, ``protocol.compute_scores`` or ``experiments.transfer_learn``
would otherwise only show when the benchmark next runs.
"""

import os
import sys

import fedmd

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


def test_benchmark_checks_pass_their_self_test():
    selftest.main()
