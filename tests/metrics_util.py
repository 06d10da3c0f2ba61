"""Test-only reader of the metrics CSV that ``MetricsLog.to_csv`` writes."""

from fedmd.errors import DataError
from fedmd.metrics import BASELINE, CSV_HEADER, POOLED, MetricsLog, MetricsRow


def metrics_from_csv(text: str) -> MetricsLog:
    """The rows of a metrics CSV; a wrong header or row width raises ``DataError``."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise DataError(f"unexpected CSV header: {lines[0] if lines else '<empty>'!r}")
    log = MetricsLog()
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != 6:
            raise DataError(f"expected 6 cells, got {len(cells)}: {ln!r}")
        round_key = cells[0] if cells[0] in (BASELINE, POOLED) else int(cells[0])
        log.rows.append(
            MetricsRow(
                round=round_key,
                party=int(cells[1]),
                accuracy=float(cells[2]),
                digest_loss=float(cells[3]) if cells[3] else None,
                revisit_loss=float(cells[4]) if cells[4] else None,
                wall_ms=float(cells[5]),
            )
        )
    return log
