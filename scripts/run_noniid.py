#!/usr/bin/env python3
"""Run the subclass/superclass task and report never-seen-subclass accuracy per party.

    python3 scripts/run_noniid.py --out runs/noniid
    python3 scripts/run_noniid.py --transport tcp --out runs/noniid-tcp
    python3 scripts/compare_metrics.py runs/noniid runs/noniid-tcp

With --out, each seed's metrics.csv, summary.json and effective_config.json
land under DIR/seed<N>/, next to a probe.csv that holds each party's
never-seen-subclass accuracy before and after the rounds
(party,pre_unseen,post_unseen; floats written exactly, as repr).
"""

import argparse
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from fedmd.cli import parse_config
from fedmd.experiments import run_noniid_probe


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    ap.add_argument("--out", metavar="DIR", help="write each seed's outputs and probe.csv under DIR/seed<N>/")
    ap.add_argument("--transport", choices=("bus", "tcp"), default="bus")
    args = ap.parse_args()

    chance = 1.0 / 3.0
    print("seed  party  baseline  final   unseen-pre  unseen-post")
    for seed in args.seeds:
        out_dir = os.path.join(args.out, f"seed{seed}") if args.out else None
        overrides = [f"seed={seed}"] + ([f"out_dir={out_dir}"] if out_dir else [])
        probe = run_noniid_probe(parse_config(os.path.join(ROOT, "configs", "noniid.json"), overrides), args.transport)
        if out_dir:
            with open(os.path.join(out_dir, "probe.csv"), "w") as f:
                f.write("party,pre_unseen,post_unseen\n")
                for k, (pre, post) in enumerate(zip(probe.pre_unseen, probe.post_unseen)):
                    f.write(f"{k},{pre!r},{post!r}\n")
        for k in range(len(probe.pre_unseen)):
            print(
                f"{seed:4d} {k:6d} {probe.baseline[k]:9.3f} {probe.final[k]:7.3f}"
                f" {probe.pre_unseen[k]:11.3f} {probe.post_unseen[k]:12.3f}"
            )
    print(f"\nchance level is {chance:.3f}; a party can beat it on a subclass it never saw")
    print("only through what its peer communicated during the rounds.")
    if args.out:
        print(f"per-seed outputs under {args.out}/seed*/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
