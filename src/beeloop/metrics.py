"""Baseline-versus-assisted season comparison.

Patch-detection gain is a percentage-point difference of detected fractions
computed over natural (non-artificial) patches only, so placed patches never
flatter the result. Daily-visit gain is a relative percent change. The
pollination improvement index combines the two with user weights; both
deltas are also reported under the alternate convention since the two
framings are easy to conflate.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_DOWN, Decimal

from .errors import (
    BadWeightsError,
    PatchUniverseMismatchError,
    ZeroBaselineVisitsError,
    write_utf8,
)
from .foraging import TOTALS_KEYS, SeasonRecord

WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ComparisonReport:
    delta_pd: float  # percentage points of natural patches detected
    delta_dv: float  # percent change in total visits
    pii: float
    w1: float
    w2: float
    pairs: dict[str, tuple[float, float]]  # metric -> (baseline, assisted)


def delta_pd(baseline: SeasonRecord, fi: SeasonRecord) -> float:
    """Percentage-point change in the detected fraction of natural patches."""
    if baseline.totals.natural_patch_ids != fi.totals.natural_patch_ids:
        raise PatchUniverseMismatchError(
            "records do not share the same non-artificial patch universe"
        )
    return 100.0 * (fi.totals.detected_fraction - baseline.totals.detected_fraction)


def delta_dv(baseline: SeasonRecord, fi: SeasonRecord) -> float:
    """Relative percent change in total season visits; 0 when both are zero."""
    vb, vf = baseline.totals.total_visits, fi.totals.total_visits
    if vb == 0:
        if vf == 0:
            return 0.0
        raise ZeroBaselineVisitsError("baseline season has zero visits")
    return 100.0 * (vf - vb) / vb


def pii(dpd: float, ddv: float, w1: float, w2: float) -> float:
    """Weighted combination w1 * dpd + w2 * ddv."""
    if w1 < 0 or w2 < 0 or abs((w1 + w2) - 1.0) > WEIGHT_SUM_TOL:
        raise BadWeightsError(f"weights must be non-negative and sum to 1, got {w1}, {w2}")
    return w1 * dpd + w2 * ddv


def display_pii(value: float) -> str:
    """Two decimals, truncated toward zero: 49.855... displays as 49.85."""
    return str(Decimal(repr(value)).quantize(Decimal("0.01"), rounding=ROUND_DOWN))


def compare(
    baseline: SeasonRecord, fi: SeasonRecord, w1: float = 0.5, w2: float = 0.5
) -> ComparisonReport:
    dpd = delta_pd(baseline, fi)
    ddv = delta_dv(baseline, fi)
    b, f = baseline.totals, fi.totals
    pairs = {
        key: (float(getattr(b, key)), float(getattr(f, key)))
        for key in TOTALS_KEYS
        if not key.endswith("_count")
    }
    return ComparisonReport(
        delta_pd=dpd, delta_dv=ddv, pii=pii(dpd, ddv, w1, w2), w1=w1, w2=w2, pairs=pairs
    )


def write_comparison_csv(path, report: ComparisonReport) -> None:
    """One row per metric plus the delta and index rows."""
    lines = ["name,baseline,fi,delta,convention\n"]
    for name, (b, f) in report.pairs.items():
        lines.append(f"{name},{b!r},{f!r},{f - b!r},absolute_difference\n")
    vb, vf = report.pairs["detected_fraction"]
    lines.append(
        f"delta_patch_detection,{vb!r},{vf!r},{report.delta_pd!r},percentage_points\n"
    )
    if vb > 0:
        rel = 100.0 * (vf - vb) / vb
        lines.append(f"delta_patch_detection_rel,{vb!r},{vf!r},{rel!r},relative_percent\n")
    tb, tf = report.pairs["total_visits"]
    lines.append(f"delta_daily_visits,{tb!r},{tf!r},{report.delta_dv!r},relative_percent\n")
    lines.append(
        f"pii,,,{report.pii!r},"
        f"w1={report.w1!r};w2={report.w2!r};display={display_pii(report.pii)}\n"
    )
    write_utf8(path, lines)
