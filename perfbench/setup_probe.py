#!/usr/bin/env python3
"""Time fedmd's set-up in a fresh interpreter and print the seconds it took.

Set-up is importing fedmd and building each config, task and party list the
workload uses. ``run.py`` starts this script several times and reports the
median; the configs arrive on stdin as a JSON list.
"""

import json
import os
import sys
import time


def main() -> None:
    raws = json.load(sys.stdin)
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    from fedmd import experiments

    for raw in raws:
        cfg = experiments.config_from_dict(raw)
        experiments.build_parties(cfg, experiments.build_task(cfg))
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
