"""Run metrics: per-round per-party rows plus CSV and summary emission.

CSV schema (stable): ``round,party,accuracy,digest_loss,revisit_loss,wall_ms``
where ``round`` is a 1-based round number or the literals ``baseline``/``pooled``.
Loss cells are empty for rows where the phase did not run.
"""

import io
from dataclasses import dataclass, field

from .errors import DataError

CSV_HEADER = "round,party,accuracy,digest_loss,revisit_loss,wall_ms"
BASELINE = "baseline"
POOLED = "pooled"


@dataclass(frozen=True)
class MetricsRow:
    round: "int | str"  # 1-based round index, or "baseline"/"pooled"
    party: int
    accuracy: float
    digest_loss: "float | None" = None
    revisit_loss: "float | None" = None
    wall_ms: float = 0.0


@dataclass
class MetricsLog:
    """All rows of one run."""

    rows: list[MetricsRow] = field(default_factory=list)

    def parties(self) -> list[int]:
        return sorted({r.party for r in self.rows})

    def _one(self, party: int, round_key) -> "MetricsRow | None":
        hits = [r for r in self.rows if r.party == party and r.round == round_key]
        return hits[0] if hits else None

    def baseline_accuracy(self, party: int) -> float:
        row = self._one(party, BASELINE)
        if row is None:
            raise DataError(f"missing baseline row for party {party}")
        return row.accuracy

    def pooled_accuracy(self, party: int) -> "float | None":
        row = self._one(party, POOLED)
        return None if row is None else row.accuracy

    def final_accuracy(self, party: int) -> float:
        rounds = [r for r in self.rows if r.party == party and isinstance(r.round, int)]
        if not rounds:
            return self.baseline_accuracy(party)
        return max(rounds, key=lambda r: r.round).accuracy

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(CSV_HEADER + "\n")
        for r in self.rows:
            digest = "" if r.digest_loss is None else repr(float(r.digest_loss))
            revisit = "" if r.revisit_loss is None else repr(float(r.revisit_loss))
            out.write(
                f"{r.round},{r.party},{repr(float(r.accuracy))},{digest},{revisit},"
                f"{r.wall_ms:.3f}\n"
            )
        return out.getvalue()


def summarize(log: MetricsLog) -> dict:
    """Per-party gain over baseline and gap to pooled, with their means.

    ``gain_k = final_k - baseline_k``; ``gap_k = pooled_k - final_k`` where a
    pooled row exists. Raises if any party lacks a baseline row.
    """
    parties = log.parties()
    if not parties:
        raise DataError("metrics log has no rows")
    gains = {}
    gaps = {}
    for k in parties:
        final = log.final_accuracy(k)
        gains[k] = final - log.baseline_accuracy(k)
        pooled = log.pooled_accuracy(k)
        if pooled is not None:
            gaps[k] = pooled - final
    return {
        "per_party_gain": [gains[k] for k in parties],
        "mean_gain": sum(gains.values()) / len(gains),
        "mean_gap_to_pooled": (sum(gaps.values()) / len(gaps)) if gaps else None,
    }
