#!/usr/bin/env python3
"""Self-test of the benchmark's output checks: each must pass a sound input and fail a corrupted one.

Runs in well under a second without fedmd: frames are packed here from the
documented layout. ``run.py`` calls ``main`` before every run; it can also be
run alone with ``python3 perfbench/selftest.py``.
"""

import os
import struct
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402


def _pack(tag: int, rnd: int, body: bytes) -> bytes:
    payload = struct.pack(">BII", tag, 1, rnd) + body
    return struct.pack(">I", len(payload)) + payload


def _matrix(a: np.ndarray) -> bytes:
    return struct.pack(">II", *a.shape) + np.ascontiguousarray(a, "<f4").tobytes()


def _collaboration(parties: int, rounds: int, subset: int, classes: int, rng) -> tuple[list, list]:
    """Frames of a small collaboration, consensus rounded from the exact weighted mean."""
    weights = [1.0 / parties] * parties
    frames = [
        _pack(checks.TAG_SCORES, 0, struct.pack(">I", k) + _matrix(np.zeros((0, classes))))
        for k in range(parties)
    ]
    for j in range(1, rounds + 1):
        idx = rng.choice(100, size=subset, replace=False)
        scores = [rng.normal(0.0, 3.0, (subset, classes)).astype(np.float32) for _ in range(parties)]
        mean = sum(w * s.astype(np.float64) for w, s in zip(weights, scores)).astype(np.float32)
        for _ in range(parties):
            frames.append(_pack(checks.TAG_SUBSET, j, struct.pack(">I", subset) + idx.astype(">u4").tobytes()))
        frames += [_pack(checks.TAG_SCORES, j, struct.pack(">I", k) + _matrix(s)) for k, s in enumerate(scores)]
        frames += [_pack(checks.TAG_CONSENSUS, j, _matrix(mean)) for _ in range(parties)]
        frames += [_pack(checks.TAG_COMPLETE, j, b"") for _ in range(parties)]
    return frames, weights


def _metrics_csv(parties: int, rounds: int, pooled: bool) -> tuple[str, dict]:
    lines = [checks.CSV_HEADER]
    base = [0.50 + 0.01 * k for k in range(parties)]
    final = [b + 0.20 for b in base]
    lines += [f"baseline,{k},{base[k]!r},,,1.000" for k in range(parties)]
    for j in range(1, rounds + 1):
        lines += [f"{j},{k},{final[k]!r},0.5,0.25,2.000" for k in range(parties)]
    if pooled:
        lines += [f"pooled,{k},{final[k] + 0.03!r},,,3.000" for k in range(parties)]
    rows = checks.parse_metrics("\n".join(lines))
    b, f, p = checks.accuracies(rows, parties)
    summary = {
        "mean_gain": sum(x - y for x, y in zip(f, b)) / parties,
        "mean_gap_to_pooled": sum(x - y for x, y in zip(p, f)) / parties if pooled else None,
    }
    return "\n".join(lines) + "\n", summary


def _ulp_off(frames: list[bytes], weights: list[float]) -> list[bytes]:
    """The first consensus frame with one cell moved one float32 ulp away from the exact mean."""
    out = list(frames)
    for i, frame in enumerate(frames):
        tag, rnd, _, matrix = checks._frame(frame)
        if tag != checks.TAG_CONSENSUS:
            continue
        reports = [checks._frame(f)[3] for f in frames if checks._frame(f)[:2] == (checks.TAG_SCORES, rnd)]
        exact = sum(w * r[0, 0].astype(np.float64) for w, r in zip(weights, reports))
        bad = matrix.copy()
        away = np.float32(np.inf if bad[0, 0] >= exact else -np.inf)
        bad[0, 0] = np.nextafter(bad[0, 0], away)
        out[i] = _pack(tag, rnd, _matrix(bad))
        return out
    raise AssertionError("no consensus frame to corrupt")


def main() -> None:
    rng = np.random.default_rng(7)
    failures = []

    def expect(name: str, sound: list, corrupted: list) -> None:
        if sound:
            failures.append(f"{name}: sound input rejected: {sound}")
        if not corrupted:
            failures.append(f"{name}: corrupted input accepted")

    frames, weights = _collaboration(3, 2, 16, 4, rng)
    expect(
        "consensus",
        checks.check_consensus(frames, weights),
        checks.check_consensus(_ulp_off(frames, weights), weights),
    )

    expected = checks.predicted_wire(3, 2, 16, 4)
    count, size = len(frames), sum(len(f) for f in frames)
    expect("wire", checks.check_wire(count, size, expected), checks.check_wire(count, size - 1, expected))

    csv, summary = _metrics_csv(4, 3, pooled=True)
    missing = "".join(line + "\n" for line in csv.splitlines() if not line.startswith("2,1,"))
    expect(
        "metrics rows",
        checks.check_experiment(csv, summary, 4, 3, pooled=True),
        checks.check_experiment(missing, summary, 4, 3, pooled=True),
    )

    chance = 1.0 / 3.0
    probes = [([0.35, 0.30], [0.60, 0.58])] * 4 + [([0.50, 0.30], [0.60, 0.58])]
    at_chance = [([0.35, 0.30], [chance, 0.58])] + probes[1:]
    expect("noniid", checks.check_noniid(probes, chance), checks.check_noniid(at_chance, chance))

    expect("coverage", checks.check_coverage(0.99), checks.check_coverage(0.90))

    if failures:
        raise AssertionError("benchmark self-test failed: " + "; ".join(failures))


if __name__ == "__main__":
    main()
    print("benchmark self-test passed")
