"""Output checks, computed apart from fedmd: every function returns a list of problems.

Nothing here imports fedmd. Metrics files are parsed from their documented CSV
schema, wire frames from the layout in ``fedmd.transport``'s docstring, and
the consensus is recomputed as a float64 weighted mean. An empty list means
the check passed.
"""

import hashlib
import math
import struct

import numpy as np

# the per-seed bounds of acceptance criteria 4 and 5. Criterion 4's gap bound
# (<= 0.10) is on the mean over five seeds; one seed alone can exceed it on
# sound code (blobs10 seed 14: 0.109), so a single run only recomputes the gap.
MIN_GAIN = 0.05
POOLED_SLACK = 0.02
CHANCE_BAND = 0.10
POST_MARGIN = 0.15
MIN_GOOD_SEEDS = 4
MIN_COVERAGE = 0.95

CSV_HEADER = "round,party,accuracy,digest_loss,revisit_loss,wall_ms"

# frame layout: u32 length prefix, then u8 tag | u32 version | u32 round | body
HEADER_BYTES = 4 + 1 + 4 + 4
TAG_SCORES, TAG_CONSENSUS, TAG_SUBSET, TAG_COMPLETE = 1, 2, 3, 4


def parse_metrics(text: str) -> list[tuple]:
    """Rows of ``metrics.csv`` as (round, party, accuracy); round is an int or a label."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected metrics header {lines[:1]!r}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 6:
            raise ValueError(f"metrics row with {len(cells)} cells: {line!r}")
        rnd = cells[0] if cells[0] in ("baseline", "pooled") else int(cells[0])
        rows.append((rnd, int(cells[1]), float(cells[2])))
    return rows


def without_wall(text: str) -> str:
    """``metrics.csv`` with the wall-time column dropped: the part reruns must repeat."""
    return "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines()) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def accuracies(rows: list[tuple], parties: int) -> tuple[list, list, list]:
    """Per-party baseline, final (last round, else baseline) and pooled accuracy."""
    base = {k: a for r, k, a in rows if r == "baseline"}
    pooled = {k: a for r, k, a in rows if r == "pooled"}
    last: dict[int, tuple[int, float]] = {}
    for r, k, a in rows:
        if isinstance(r, int) and (k not in last or r > last[k][0]):
            last[k] = (r, a)
    final = [last[k][1] if k in last else base.get(k) for k in range(parties)]
    return [base.get(k) for k in range(parties)], final, [pooled.get(k) for k in range(parties)]


def check_rows(rows: list[tuple], parties: int, rounds: int, pooled: bool) -> list[str]:
    """One baseline row per party, one row per (round, party), one pooled row per party if on."""
    problems = []
    want = {("baseline", k) for k in range(parties)}
    want |= {(j, k) for j in range(1, rounds + 1) for k in range(parties)}
    if pooled:
        want |= {("pooled", k) for k in range(parties)}
    got = [(r, k) for r, k, _ in rows]
    if len(got) != len(set(got)):
        problems.append("metrics.csv repeats a (round, party) row")
    missing = want - set(got)
    extra = set(got) - want
    if missing:
        problems.append(f"metrics.csv lacks {len(missing)} rows, e.g. {sorted(missing, key=str)[0]}")
    if extra:
        problems.append(f"metrics.csv has {len(extra)} unexpected rows, e.g. {sorted(extra, key=str)[0]}")
    return problems


def check_experiment(csv_text: str, summary: dict, parties: int, rounds: int, pooled: bool) -> list[str]:
    """Row completeness, summary recomputation and criterion 4's per-seed bounds."""
    rows = parse_metrics(csv_text)
    problems = check_rows(rows, parties, rounds, pooled)
    if problems:
        return problems
    base, final, pool = accuracies(rows, parties)
    gain = sum(f - b for f, b in zip(final, base)) / parties
    if not math.isclose(summary.get("mean_gain", math.nan), gain, rel_tol=1e-12, abs_tol=1e-15):
        problems.append(f"summary mean_gain {summary.get('mean_gain')} != {gain} from metrics.csv")
    if gain < MIN_GAIN:
        problems.append(f"mean gain {gain:+.4f} < {MIN_GAIN}")
    if pooled:
        gap = sum(p - f for p, f in zip(pool, final)) / parties
        reported = summary.get("mean_gap_to_pooled")
        if reported is None or not math.isclose(reported, gap, rel_tol=1e-12, abs_tol=1e-15):
            problems.append(f"summary mean_gap_to_pooled {reported} != {gap} from metrics.csv")
        worse = [k for k in range(parties) if pool[k] < base[k] - POOLED_SLACK]
        if worse:
            problems.append(f"pooled accuracy below baseline - {POOLED_SLACK} for parties {worse}")
    return problems


def check_noniid(probes: list[tuple[list, list]], chance: float) -> list[str]:
    """Criterion 5: pre-collaboration unseen accuracy near chance, post well above, on 4 of 5 seeds."""
    good = 0
    for pre, post in probes:
        pre_ok = all(abs(p - chance) <= CHANCE_BAND for p in pre)
        post_ok = all(p >= chance + POST_MARGIN for p in post)
        good += pre_ok and post_ok
    need = min(MIN_GOOD_SEEDS, len(probes))
    if good < need:
        return [f"never-seen-subclass transfer holds on {good}/{len(probes)} seeds, need {need}"]
    return []


def _frame(frame: bytes) -> tuple[int, int, int, "np.ndarray | None"]:
    """(tag, round, party or -1, matrix or None) of one encoded frame."""
    (length,) = struct.unpack_from(">I", frame, 0)
    if length != len(frame) - 4:
        raise ValueError(f"frame declares {length} payload bytes, has {len(frame) - 4}")
    tag, _version, rnd = struct.unpack_from(">BII", frame, 4)
    pos = HEADER_BYTES
    party = -1
    if tag == TAG_SCORES:
        (party,) = struct.unpack_from(">I", frame, pos)
        pos += 4
    if tag in (TAG_SCORES, TAG_CONSENSUS):
        rows, cols = struct.unpack_from(">II", frame, pos)
        pos += 8
        matrix = np.frombuffer(frame, dtype="<f4", count=rows * cols, offset=pos).reshape(rows, cols)
        return tag, rnd, party, matrix
    return tag, rnd, party, None


def check_consensus(frames: list[bytes], weights: list[float]) -> list[str]:
    """Every consensus frame is within one float32 ulp of the float64 weighted mean of its round's reports."""
    reports: dict[int, dict[int, np.ndarray]] = {}
    consensus: list[tuple[int, np.ndarray]] = []
    for frame in frames:
        tag, rnd, party, matrix = _frame(frame)
        if tag == TAG_SCORES and rnd > 0:
            reports.setdefault(rnd, {})[party] = matrix
        elif tag == TAG_CONSENSUS:
            consensus.append((rnd, matrix))
    if not consensus:
        return ["no consensus frame was sent"]
    w = np.asarray(weights, dtype=np.float64)
    problems = []
    for rnd, got in consensus:
        parties = reports.get(rnd, {})
        if sorted(parties) != list(range(len(w))):
            problems.append(f"round {rnd}: score reports from parties {sorted(parties)}")
            continue
        stack = np.stack([parties[k].astype(np.float64) for k in range(len(w))])
        ref = np.tensordot(w, stack, axes=1)
        if got.shape != ref.shape:
            problems.append(f"round {rnd}: consensus shape {got.shape} vs {ref.shape}")
            continue
        ulp = np.spacing(np.abs(ref).astype(np.float32)).astype(np.float64)
        off = np.abs(got.astype(np.float64) - ref) >= ulp
        if off.any():
            problems.append(f"round {rnd}: {int(off.sum())} consensus cells a float32 ulp or more off")
    return problems


def predicted_wire(parties: int, rounds: int, subset: int, classes: int) -> tuple[int, int]:
    """Frames and bytes one collaboration sends, from the frame layout.

    Each party sends a hello (a 0x``classes`` score report for round 0). Each
    round the server sends every party a subset announcement and a consensus,
    and every party sends a score report and a round-complete frame.
    """
    hello = HEADER_BYTES + 4 + 8
    announce = HEADER_BYTES + 4 + 4 * subset
    scores = HEADER_BYTES + 4 + 8 + 4 * subset * classes
    broadcast = HEADER_BYTES + 8 + 4 * subset * classes
    complete = HEADER_BYTES
    frames = parties + 4 * parties * rounds
    size = parties * hello + parties * rounds * (announce + scores + broadcast + complete)
    return frames, size


def check_wire(frames: int, size: int, expected: tuple[int, int]) -> list[str]:
    problems = []
    if frames != expected[0]:
        problems.append(f"{frames} frames on the wire, predicted {expected[0]}")
    if size != expected[1]:
        problems.append(f"{size} bytes on the wire, predicted {expected[1]}")
    return problems


def check_coverage(coverage: float) -> list[str]:
    if not coverage >= MIN_COVERAGE:
        return [f"top-level spans cover {coverage:.3f} of the traced wall time, need {MIN_COVERAGE}"]
    return []
