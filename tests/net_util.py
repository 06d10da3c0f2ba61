"""Test-only checks on networks, shared by the kernel and protocol tests."""

import itertools

import numpy as np


def share_no_parameter(nets) -> bool:
    """True when no two of ``nets`` hold a parameter in the same memory."""
    return not any(
        np.shares_memory(p, q)
        for a, b in itertools.combinations(nets, 2)
        for p in a.parameters()
        for q in b.parameters()
    )
