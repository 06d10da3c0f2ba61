"""Per-layer metrics derived from a traced run's spans.

Every figure is a total over the traced run (set-up plus one unit of work)
unless its name says it is a rate or a mean per call. Self time is a span's
duration minus that of its direct children on the same thread.
"""

import numpy as np

LAYERS = ("data", "experiments", "protocol", "nn", "transport")
# phases a unit's wall time should be spent in; their union must cover it
TOP_LEVEL = (
    "experiments.build_task",
    "experiments.build_parties",
    "protocol.run_fedmd",
    "experiments.baseline_pooled",
    "experiments.write_outputs",
)
TRAIN_PHASES = ("nn.train_to_convergence", "nn.train_distill", "nn.train_supervised")

# name -> unit, in the order they are reported
UNITS = {
    "data.synth_blobs.ms": "ms",
    "data.partition.ms": "ms",
    "experiments.build_task.ms": "ms",
    "experiments.baseline_pooled.s": "s",
    "experiments.write_outputs.ms": "ms",
    "protocol.prologue.s": "s",
    "protocol.rounds.s": "s",
    "protocol.transfer_learn.calls": "count",
    "protocol.transfer_learn.s": "s",
    "protocol.compute_scores.ms": "ms",
    "protocol.aggregate.ms": "ms",
    "protocol.parallelism": "ratio",
    "nn.steps": "count",
    "nn.transfer_public.epochs": "count",
    "nn.transfer_private.epochs": "count",
    "nn.step.us": "us",
    "nn.adam_step.us": "us",
    "nn.cross_entropy.us": "us",
    "nn.distill_loss.us": "us",
    "nn.train_to_convergence.s": "s",
    "nn.train_distill.s": "s",
    "nn.train_supervised.s": "s",
    "nn.accuracy.calls": "count",
    "nn.accuracy.ms": "ms",
    "transport.frames": "count",
    "transport.bytes": "count",
    "transport.encode.us": "us",
    "transport.decode.us": "us",
    "transport.codec_mb_per_s": "MB/s",
    "transport.recv_wait.s": "s",
    **{f"{layer}.self.s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.coverage": "fraction",
    "trace.spans": "count",
}


class Spans:
    """Column view of a span table with per-name lookups."""

    def __init__(self, table: dict):
        self.name = table["name"]
        self.parent = table["parent"]
        self.t0 = table["t0"]
        self.t1 = table["t1"]
        self.thread = table["thread"]
        self.names = table["names"]
        self.thread_names = table["thread_names"]
        self.dur = self.t1 - self.t0
        n = len(self.name)
        has_parent = self.parent >= 0
        self.child_time = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=n
        )[:n]
        self.self_time = self.dur - self.child_time

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def count(self, *names: str) -> int:
        return int(self.mask(*names).sum())

    def total(self, *names: str) -> float:
        return float(self.dur[self.mask(*names)].sum())

    def per_call(self, name: str) -> float:
        n = self.count(name)
        return self.total(name) / n if n else 0.0


def _prologue_split(s: Spans) -> tuple[float, float, float]:
    """(prologue, rounds, party busy time) summed over all ``run_fedmd`` calls.

    The prologue of a call ends at its last party's baseline: the first
    accuracy evaluation a party thread makes after its ``transfer_learn``.
    Busy time is each party thread's top-level compute spans, channel waits
    excluded.
    """
    prologue = rounds = busy = 0.0
    roots = s.parent < 0
    transport_ids = [i for i, n in enumerate(s.names) if n.startswith("transport.")]
    for r in np.flatnonzero(s.mask("protocol.run_fedmd")):
        start, end = s.t0[r], s.t1[r]
        last_baseline = start
        for tid, tname in enumerate(s.thread_names):
            if not tname.startswith("party-"):
                continue
            mine = np.flatnonzero((s.thread == tid) & roots & (s.t0 >= start) & (s.t1 <= end))
            if not len(mine):
                continue
            mine = mine[np.argsort(s.t0[mine])]
            names = [s.names[s.name[i]] for i in mine]
            if "protocol.transfer_learn" in names:
                after = names.index("protocol.transfer_learn") + 1
                if "nn.accuracy" in names[after:]:
                    i = mine[names.index("nn.accuracy", after)]
                    last_baseline = max(last_baseline, s.t1[i])
            compute = mine[~np.isin(s.name[mine], transport_ids)]
            busy += float(s.dur[compute].sum())
        prologue += last_baseline - start
        rounds += end - last_baseline
    return prologue, rounds, busy


def _epochs(s: Spans) -> tuple[int, int]:
    """Public and private epochs of every transfer phase: one convergence check per epoch."""
    public = private = 0
    conv = s.mask("nn.train_to_convergence")
    acc = s.mask("nn.accuracy")
    for t in np.flatnonzero(s.mask("protocol.transfer_learn")):
        phases = np.flatnonzero(conv & (s.parent == t))
        phases = phases[np.argsort(s.t0[phases])]
        checks = [int((acc & (s.parent == p)).sum()) for p in phases]
        if len(checks) == 2:
            public += checks[0]
            private += checks[1]
    return public, private


def layer_metrics(table: dict, unit_span: str, frame_bytes: int) -> dict:
    s = Spans(table)
    unit = np.flatnonzero(s.mask(unit_span))
    u0, u1 = float(s.t0[unit].min()), float(s.t1[unit].max())
    wall = float(s.dur[unit].sum())
    main = s.thread[unit[0]]
    top = s.mask(*TOP_LEVEL) & (s.thread == main) & (s.t0 >= u0) & (s.t1 <= u1)
    prologue, rounds, busy = _prologue_split(s)
    fedmd_wall = s.total("protocol.run_fedmd")
    public, private = _epochs(s)
    steps = s.count("nn.adam_step")
    phases = s.mask(*TRAIN_PHASES)
    checks_in_phases = s.mask("nn.accuracy") & np.isin(s.parent, np.flatnonzero(phases))
    train_busy = float(s.dur[phases].sum() - s.dur[checks_in_phases].sum())
    recv = np.flatnonzero(s.mask("transport.recv"))
    decode_in_recv = s.mask("transport.decode_message") & np.isin(s.parent, recv)
    codec_s = s.total("transport.encode_message", "transport.decode_message")
    out = {
        "data.synth_blobs.ms": 1e3 * s.total("data.synth_blobs"),
        "data.partition.ms": 1e3 * s.total("data.partition_iid", "data.partition_noniid"),
        "experiments.build_task.ms": 1e3 * s.total("experiments.build_task"),
        "experiments.baseline_pooled.s": s.total("experiments.baseline_pooled"),
        "experiments.write_outputs.ms": 1e3 * s.total("experiments.write_outputs"),
        "protocol.prologue.s": prologue,
        "protocol.rounds.s": rounds,
        "protocol.transfer_learn.calls": s.count("protocol.transfer_learn"),
        "protocol.transfer_learn.s": s.total("protocol.transfer_learn"),
        "protocol.compute_scores.ms": 1e3 * s.total("protocol.compute_scores"),
        "protocol.aggregate.ms": 1e3 * s.total("protocol.aggregate"),
        "protocol.parallelism": busy / fedmd_wall if fedmd_wall else 0.0,
        "nn.steps": steps,
        "nn.transfer_public.epochs": public,
        "nn.transfer_private.epochs": private,
        "nn.step.us": 1e6 * train_busy / steps if steps else 0.0,
        "nn.adam_step.us": 1e6 * s.per_call("nn.adam_step"),
        "nn.cross_entropy.us": 1e6 * s.per_call("nn.cross_entropy"),
        "nn.distill_loss.us": 1e6 * s.per_call("nn.distill_loss"),
        "nn.train_to_convergence.s": s.total("nn.train_to_convergence"),
        "nn.train_distill.s": s.total("nn.train_distill"),
        "nn.train_supervised.s": s.total("nn.train_supervised"),
        "nn.accuracy.calls": s.count("nn.accuracy"),
        "nn.accuracy.ms": 1e3 * s.total("nn.accuracy"),
        "transport.frames": s.count("transport.send"),
        "transport.bytes": frame_bytes,
        "transport.encode.us": 1e6 * s.per_call("transport.encode_message"),
        "transport.decode.us": 1e6 * s.per_call("transport.decode_message"),
        # every frame is encoded once and decoded once (run.py checks the counts)
        "transport.codec_mb_per_s": 2 * frame_bytes / 1e6 / codec_s if codec_s else 0.0,
        "transport.recv_wait.s": s.total("transport.recv") - float(s.dur[decode_in_recv].sum()),
    }
    for layer in LAYERS:
        ids = [i for i, n in enumerate(s.names) if n.startswith(layer + ".")]
        out[f"{layer}.self.s"] = float(s.self_time[np.isin(s.name, ids)].sum())
    out["trace.wall_s"] = wall
    out["trace.coverage"] = float(s.dur[top].sum()) / wall if wall else 0.0
    out["trace.spans"] = len(s.name)
    return out
