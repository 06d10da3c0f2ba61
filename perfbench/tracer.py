"""In-memory span tracer that wraps fedmd's public functions from outside the package.

A span is (name, start, end, parent) recorded on the thread that made the call.
Each thread appends to its own column arrays, so concurrent party threads never
interleave half-written records, and a parent is always a span of the same
thread. Spans stay in memory until ``save`` writes them out.

Functions are wrapped in every namespace their callers look them up in: a
module attribute for calls made through the module (``nn.accuracy``) and for
calls inside the defining module (global lookup at call time), plus each
``from x import f`` copy (``experiments.transfer_learn``). Channel methods are
wrapped on their classes.
"""

import contextlib
import functools
import json
import threading
import time
from array import array

import numpy as np

# span name -> [(attribute path under the fedmd package, attribute)]
TARGETS = {
    "data.synth_blobs": [("data", "synth_blobs"), ("experiments", "synth_blobs")],
    "data.partition_iid": [("data", "partition_iid"), ("experiments", "partition_iid")],
    "data.partition_noniid": [("data", "partition_noniid"), ("experiments", "partition_noniid")],
    "data.to_superclass": [("data", "to_superclass"), ("experiments", "to_superclass")],
    "experiments.config_from_dict": [("experiments", "config_from_dict")],
    "experiments.build_task": [("experiments", "build_task")],
    "experiments.build_parties": [("experiments", "build_parties")],
    "experiments.baseline_pooled": [("experiments", "baseline_pooled")],
    "experiments.write_outputs": [("experiments", "write_outputs")],
    "experiments.run_experiment": [("experiments", "run_experiment")],
    "experiments.run_noniid_probe": [("experiments", "run_noniid_probe")],
    "protocol.make_party": [("protocol", "make_party"), ("experiments", "make_party")],
    "protocol.run_fedmd": [("protocol", "run_fedmd"), ("experiments", "run_fedmd")],
    "protocol.transfer_learn": [("protocol", "transfer_learn"), ("experiments", "transfer_learn")],
    "protocol.compute_scores": [("protocol", "compute_scores")],
    "protocol.aggregate": [("protocol", "aggregate")],
    "nn.train_to_convergence": [("nn", "train_to_convergence")],
    "nn.train_distill": [("nn", "train_distill")],
    "nn.train_supervised": [("nn", "train_supervised")],
    "nn.accuracy": [("nn", "accuracy")],
    "nn.adam_step": [("nn", "adam_step")],
    "nn.cross_entropy": [("nn", "cross_entropy")],
    "nn.distill_loss": [("nn", "distill_loss")],
    "transport.encode_message": [("transport", "encode_message")],
    "transport.decode_message": [("transport", "decode_message")],
    "transport.send": [("transport.BusChannel", "send"), ("transport.TcpChannel", "send")],
    "transport.recv": [("transport.BusChannel", "recv"), ("transport.TcpChannel", "recv")],
}


class _ThreadSpans:
    def __init__(self, thread_name: str):
        self.thread = thread_name
        self.name = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack: list[int] = []


class Tracer:
    """Records spans for wrapped callables; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self.frames: list[bytes] = []  # every frame encoded, in order

    def _buf(self) -> _ThreadSpans:
        try:
            return self._local.buf
        except AttributeError:
            buf = _ThreadSpans(threading.current_thread().name)
            with self._lock:
                self._threads.append(buf)
            self._local.buf = buf
            return buf

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, nid: int) -> tuple[_ThreadSpans, int]:
        buf = self._buf()
        idx = len(buf.name)
        buf.name.append(nid)
        buf.parent.append(buf.stack[-1] if buf.stack else -1)
        buf.t1.append(0.0)
        buf.stack.append(idx)
        buf.t0.append(time.perf_counter())
        return buf, idx

    @staticmethod
    def _exit(buf: _ThreadSpans, idx: int) -> None:
        buf.t1[idx] = time.perf_counter()
        buf.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Records one span around a block, for the benchmark's own phases."""
        buf, idx = self._enter(self.name_id(name))
        try:
            yield
        finally:
            self._exit(buf, idx)

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf, idx = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(buf, idx)

        return traced

    def install(self, package) -> None:
        """Wrap every target, resolving its path against the imported fedmd ``package``."""
        wrapped: dict[tuple[int, str], object] = {}  # one wrapper per original callable
        for name, sites in TARGETS.items():
            for path, attr in sites:
                owner = package
                for part in path.split("."):
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                key = (id(original), name)
                if key not in wrapped:
                    wrapped[key] = self.wrap(name, original)
                    if name == "transport.encode_message":
                        wrapped[key] = self._keep_frames(wrapped[key])
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapped[key])

    def _keep_frames(self, encode):
        @functools.wraps(encode)
        def keeping(msg):
            frame = encode(msg)
            self.frames.append(frame)
            return frame

        return keeping

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def spans(self) -> dict:
        """All spans as columns; ``parent`` indexes into the same flat arrays, -1 at a root."""
        name, parent, t0, t1, thread = [], [], [], [], []
        offset = 0
        thread_names = []
        for tid, buf in enumerate(self._threads):
            n = len(buf.name)
            name.append(np.frombuffer(buf.name, dtype=np.int32)[:n])
            p = np.frombuffer(buf.parent, dtype=np.int32)[:n].astype(np.int64)
            parent.append(np.where(p >= 0, p + offset, -1))
            t0.append(np.frombuffer(buf.t0, dtype=np.float64)[:n])
            t1.append(np.frombuffer(buf.t1, dtype=np.float64)[:n])
            thread.append(np.full(n, tid, dtype=np.int32))
            thread_names.append(buf.thread)
            offset += n
        cat = lambda parts, dt: np.concatenate(parts) if parts else np.empty(0, dtype=dt)
        return {
            "name": cat(name, np.int32),
            "parent": cat(parent, np.int64),
            "t0": cat(t0, np.float64),
            "t1": cat(t1, np.float64),
            "thread": cat(thread, np.int32),
            "names": list(self.names),
            "thread_names": thread_names,
        }

    @staticmethod
    def save(spans: dict, path: str) -> None:
        np.savez(
            path,
            name=spans["name"],
            parent=spans["parent"],
            t0=spans["t0"],
            t1=spans["t1"],
            thread=spans["thread"],
            meta=np.array(json.dumps({"names": spans["names"], "threads": spans["thread_names"]})),
        )

