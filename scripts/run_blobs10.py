#!/usr/bin/env python3
"""Run the canonical 10-party collaboration over one or more seeds and summarize.

    python3 scripts/run_blobs10.py --transport tcp --out runs/tcp
    python3 scripts/compare_metrics.py runs/blobs10 runs/tcp

The metrics.csv of every seed lands under --out; two trees, from two
transports or two versions of the code, compare with compare_metrics.py.
"""

import argparse
import os
import sys

import numpy as np

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from fedmd.cli import parse_config
from fedmd.experiments import run_experiment


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    ap.add_argument("--out", default="runs/blobs10")
    ap.add_argument("--transport", choices=("bus", "tcp"), default="bus")
    args = ap.parse_args()

    gains, gaps = [], []
    for seed in args.seeds:
        out_dir = os.path.join(args.out, f"seed{seed}")
        cfg = parse_config(
            os.path.join(ROOT, "configs", "blobs10.json"), [f"seed={seed}", f"out_dir={out_dir}"]
        )
        log, summary = run_experiment(cfg, args.transport)
        parties = log.parties()
        base = np.mean([log.baseline_accuracy(k) for k in parties])
        final = np.mean([log.final_accuracy(k) for k in parties])
        pooled = np.mean([log.pooled_accuracy(k) for k in parties])
        gains.append(final - base)
        gaps.append(pooled - final)
        print(
            f"seed {seed}: baseline {base:.3f}  final {final:.3f}  pooled {pooled:.3f}  "
            f"gain {final - base:+.3f}  gap {pooled - final:+.3f}"
        )
    print(f"\nmean gain {np.mean(gains):+.3f}   mean gap to pooled {np.mean(gaps):+.3f}")
    print(f"per-seed CSVs under {args.out}/seed*/metrics.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
