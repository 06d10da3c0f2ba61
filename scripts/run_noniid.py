#!/usr/bin/env python3
"""Run the subclass/superclass task and report never-seen-subclass accuracy per party."""

import argparse
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from fedmd.cli import parse_config
from fedmd.experiments import run_noniid_probe


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    args = ap.parse_args()

    chance = 1.0 / 3.0
    print("seed  party  baseline  final   unseen-pre  unseen-post")
    for seed in args.seeds:
        probe = run_noniid_probe(
            parse_config(os.path.join(ROOT, "configs", "noniid.json"), [f"seed={seed}"])
        )
        for k in range(len(probe.pre_unseen)):
            print(
                f"{seed:4d} {k:6d} {probe.baseline[k]:9.3f} {probe.final[k]:7.3f}"
                f" {probe.pre_unseen[k]:11.3f} {probe.post_unseen[k]:12.3f}"
            )
    print(f"\nchance level is {chance:.3f}; a party can beat it on a subclass it never saw")
    print("only through what its peer communicated during the rounds.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
