#!/usr/bin/env python3
"""Benchmark fedmd through its public entry points, from the root of a checkout.

    python3 perfbench/run.py --workload blobs10 --seed 0 --seconds 20 --trace 0

A unit is one whole pass of the workload (see ``workloads/*.json``). An
untraced run repeats units while another fits in ``--seconds`` (at least one)
and reports the end-to-end metrics; a traced run does one unit with every
public function of the program wrapped and reports the per-layer metrics.
Either way every unit's outputs are checked, and the last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` (operations: a party's
prologue, a party-round, a party's pooled fit) and ``metrics``. The exit code
is 0 when every check passed, 1 when one failed and 2 when the program or the
workload cannot be found.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "runs", "perfbench")
SETUP_REPEATS = 11

sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402
import selftest  # noqa: E402
from tracer import Tracer  # noqa: E402


def load_workload(name: str) -> "dict | None":
    path = os.path.join(HERE, "workloads", f"{name}.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f)


def unit_configs(wl: dict, seed: int) -> list[dict]:
    """The raw configs of one unit: the base config, the stated overrides, a seed and an output dir."""
    with open(os.path.join(ROOT, wl["base_config"])) as f:
        base = json.load(f)
    seeds = [seed] if wl["seeds"] is None else wl["seeds"]
    out = os.path.join(OUT, wl["name"], f"seed-{seed}")
    return [
        dict(base, **wl["overrides"], seed=s, out_dir=os.path.join(out, f"config-seed-{s}"))
        for s in seeds
    ]


def task_classes(raw: dict) -> int:
    part = raw["partition"]
    if part["mode"] == "noniid":
        return len(set(part["subclass_map"].values()))
    return raw["data"]["classes"]


def operations(raw: dict) -> int:
    m = raw["parties"]
    return m + m * raw["rounds"] + (m if raw["pooled"] else 0)


def source_digest(wl: dict) -> str:
    """Identifies the program and the inputs, so rerun digests are compared like for like."""
    h = hashlib.sha256(json.dumps(wl, sort_keys=True).encode())
    pkg = os.path.join(SRC, "fedmd")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + f.read())
    with open(os.path.join(ROOT, wl["base_config"]), "rb") as f:
        h.update(f.read())
    return h.hexdigest()[:16]


def time_setup(raws: list[dict]) -> float:
    """Median seconds of import plus config, task and party building, each in a fresh interpreter."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, probe], input=json.dumps(raws), capture_output=True, text=True,
            timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Runner:
    """Runs units of one workload and keeps what the checks and metrics need."""

    def __init__(self, wl: dict, raws: list[dict], tracer: "Tracer | None"):
        from fedmd import experiments

        self.experiments = experiments
        self.wl = wl
        self.raws = raws
        self.cfgs = [experiments.config_from_dict(r) for r in raws]
        self.tracer = tracer
        self.collaborations: list[tuple[object, int, int]] = []  # (log, first frame, end frame)
        inner = experiments.run_fedmd

        def observed(*args, **kwargs):
            first = len(tracer.frames) if tracer else 0
            log = inner(*args, **kwargs)
            self.collaborations.append((log, first, len(tracer.frames) if tracer else 0))
            return log

        experiments.run_fedmd = observed
        self._restore = lambda: setattr(experiments, "run_fedmd", inner)

    def close(self) -> None:
        self._restore()

    def unit(self) -> tuple[float, list]:
        """One timed pass; returns its wall seconds and the probe results (noniid only)."""
        ex = self.experiments
        self.collaborations.clear()
        probes = []
        t0 = time.perf_counter()
        for cfg in self.cfgs:
            if self.wl["entry"] == "run_experiment":
                ex.run_experiment(cfg, transport_kind=self.wl["transport"])
            else:
                probes.append(ex.run_noniid_probe(cfg, transport_kind=self.wl["transport"]))
                log = self.collaborations[-1][0]
                ex.write_outputs(cfg.out_dir, log, ex.summarize(log), cfg)
        return time.perf_counter() - t0, probes


def check_unit(wl: dict, raws: list[dict], probes: list) -> tuple[list[str], str, list, list]:
    """Checks one unit's written outputs; returns problems, the rerun digest, finals and baselines."""
    problems, kept, finals, bases = [], [], [], []
    for raw in raws:
        with open(os.path.join(raw["out_dir"], "metrics.csv")) as f:
            csv = f.read()
        with open(os.path.join(raw["out_dir"], "summary.json")) as f:
            summary = json.load(f)
        m, rounds = raw["parties"], raw["rounds"]
        if wl["entry"] == "run_experiment":
            problems += checks.check_experiment(csv, summary, m, rounds, raw["pooled"])
        else:
            problems += checks.check_rows(checks.parse_metrics(csv), m, rounds, raw["pooled"])
        base, final, _ = checks.accuracies(checks.parse_metrics(csv), m)
        bases += base
        finals += final
        kept.append(checks.without_wall(csv))
    if probes:
        chance = 1.0 / task_classes(raws[0])
        problems += checks.check_noniid([(p.pre_unseen, p.post_unseen) for p in probes], chance)
    return problems, checks.digest("".join(kept)), finals, bases


def check_rerun(key: str, digests: list[str]) -> list[str]:
    """Every unit of this run, and every earlier run of the same key in this checkout, wrote the same metrics."""
    problems = []
    if len(set(digests)) > 1:
        problems.append(f"metrics.csv differs between the {len(digests)} units of this run")
    path = os.path.join(OUT, "digests.json")
    seen = {}
    if os.path.isfile(path):
        with open(path) as f:
            seen = json.load(f)
    if key in seen and seen[key] != digests[0]:
        problems.append("metrics.csv differs from an earlier run with the same seed and program")
    seen.setdefault(key, digests[0])
    os.makedirs(OUT, exist_ok=True)
    with open(path + ".tmp", "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)
    return problems


def check_trace(runner: Runner, table: dict, metrics: dict) -> list[str]:
    """Consensus against a float64 weighted mean, and frame and byte counts against the layout."""
    problems = []
    decoded = int((table["name"] == table["names"].index("transport.decode_message")).sum())
    if decoded != metrics["transport.frames"]:
        problems.append(f"{metrics['transport.frames']} frames sent but {decoded} decoded")
    frames = runner.tracer.frames
    expected_frames = expected_bytes = 0
    for cfg, raw, (_, first, end) in zip(runner.cfgs, runner.raws, runner.collaborations):
        problems += checks.check_consensus(frames[first:end], list(cfg.collab.weights))
        subset = min(raw["subset_size"], task_classes(raw) * raw["data"]["public_per_class"])
        f, b = checks.predicted_wire(raw["parties"], raw["rounds"], subset, task_classes(raw))
        expected_frames += f
        expected_bytes += b
    problems += checks.check_wire(
        metrics["transport.frames"], metrics["transport.bytes"], (expected_frames, expected_bytes)
    )
    problems += checks.check_coverage(metrics["trace.coverage"])
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "fedmd", "__init__.py")):
        print(f"perfbench: no fedmd package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    wl = load_workload(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, wl["base_config"])):
        print(f"perfbench: missing {wl['base_config']}", file=sys.stderr)
        return 2
    selftest.main()
    raws = unit_configs(wl, args.seed)
    sys.path.insert(0, SRC)

    tracer = Tracer() if args.trace else None
    if tracer:
        with tracer.span("bench.setup"):
            import fedmd
            from fedmd import experiments

            tracer.install(fedmd)
            for raw in raws:
                cfg = experiments.config_from_dict(raw)
                experiments.build_parties(cfg, experiments.build_task(cfg))
    runner = Runner(wl, raws, tracer)

    problems, walls, digests = [], [], []
    attempted = failed = 0
    finals = bases = []
    start = time.perf_counter()
    try:
        while True:
            attempted += sum(operations(r) for r in raws)
            try:
                if tracer:
                    with tracer.span("bench.unit"):
                        wall, probes = runner.unit()
                else:
                    wall, probes = runner.unit()
            except Exception as exc:  # the unit's operations count as failed; report, then stop
                traceback.print_exc()
                failed += sum(operations(r) for r in raws)
                problems.append(f"unit raised {type(exc).__name__}: {exc}")
                break
            walls.append(wall)
            unit_problems, dig, finals, bases = check_unit(wl, raws, probes)
            problems += unit_problems
            digests.append(dig)
            elapsed = time.perf_counter() - start
            if tracer or elapsed + wall > args.seconds:
                break
    finally:
        runner.close()
        if tracer:
            tracer.uninstall()

    if digests:
        key = f"{wl['name']}/{[r['seed'] for r in raws]}/{source_digest(wl)}"
        problems += check_rerun(key, digests)

    if tracer:
        table = tracer.spans()
        frame_bytes = sum(map(len, tracer.frames))
        values = layers.layer_metrics(table, "bench.unit", frame_bytes) if walls else {}
        if walls:
            problems += check_trace(runner, table, values)
        os.makedirs(OUT, exist_ok=True)
        Tracer.save(table, os.path.join(OUT, f"trace-{wl['name']}-seed-{args.seed}.npz"))
        metrics = {k: {"value": values.get(k, 0.0), "unit": u} for k, u in layers.UNITS.items()}
    else:
        rss_kib = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
        n = max(len(finals), 1)
        metrics = {
            "setup_s": {"value": time_setup(raws), "unit": "s"},
            "wall_s": {"value": statistics.median(walls) if walls else 0.0, "unit": "s"},
            "peak_rss_mb": {"value": rss_kib * 1024 / 1e6, "unit": "MB"},
            "final_acc": {"value": sum(finals) / n, "unit": "fraction"},
        }
        # the paper's headline; printed, not gated (see README.md, "End-to-end metrics")
        gain = sum(f - b for f, b in zip(finals, bases)) / n
        print(f"perfbench: mean gain over baseline {gain:+.4f} (gain_acc)")

    for p in problems:
        print(f"perfbench: check failed: {p}")
    print(f"perfbench: {wl['name']} seed {args.seed}: {len(walls)} unit(s), trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
