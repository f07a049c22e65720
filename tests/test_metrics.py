import pytest
from hypothesis import given, strategies as st

from beeloop.errors import (
    BadWeightsError,
    PatchUniverseMismatchError,
    ZeroBaselineVisitsError,
)
from beeloop.foraging import SeasonRecord, SeasonTotals
from beeloop.metrics import (
    compare,
    delta_dv,
    delta_pd,
    display_pii,
    pii,
    write_comparison_csv,
)
from beeloop.scouting import ScoutReport

import numpy as np


def record(detected_fraction=0.3, total_visits=1000, natural_ids=(0, 1, 2, 3),
           detected_ids=(0,), covered=0.3):
    totals = SeasonTotals(
        total_visits=total_visits,
        total_trips=total_visits,
        mean_foraging_period_h=6.0,
        mean_trips_per_sunshine_hour=10.0,
        detected_patch_count=len(detected_ids),
        natural_patch_count=len(natural_ids),
        detected_fraction=detected_fraction,
        covered_area_fraction=covered,
        natural_patch_ids=tuple(natural_ids),
    )
    report = ScoutReport(
        coverage=np.zeros((2, 2), dtype=np.int64),
        detected_patch_ids=frozenset(detected_ids),
        covered_area_fraction=covered,
        detected_patch_fraction=detected_fraction,
    )
    return SeasonRecord(days=[], totals=totals, scout_report=report, coverage_by_day={})


def test_delta_pd_matches_reported_fractions():
    base = record(detected_fraction=0.335)
    fi = record(detected_fraction=0.952)
    assert delta_pd(base, fi) == pytest.approx(61.7, abs=1e-9)


def test_delta_pd_identical_records_zero():
    base = record()
    assert delta_pd(base, record()) == 0.0
    saturated = record(detected_fraction=1.0)
    assert delta_pd(saturated, record(detected_fraction=1.0)) == 0.0


def test_delta_pd_rejects_different_patch_universe():
    base = record(natural_ids=(0, 1, 2))
    fi = record(natural_ids=(0, 1, 2, 9))
    with pytest.raises(PatchUniverseMismatchError):
        delta_pd(base, fi)


def test_artificial_patches_do_not_change_universe():
    # fi record knows extra (artificial) patches; natural universe matches
    base = record(detected_ids=(0, 1))
    fi = record(detected_ids=(0, 1, 2, 3, 100, 101), detected_fraction=1.0)
    assert delta_pd(base, fi) == pytest.approx(70.0)


def test_delta_dv_relative_percent():
    assert delta_dv(record(total_visits=1000), record(total_visits=1380)) == 38.0
    assert delta_dv(record(total_visits=500), record(total_visits=500)) == 0.0


def test_delta_dv_zero_baseline():
    with pytest.raises(ZeroBaselineVisitsError):
        delta_dv(record(total_visits=0), record(total_visits=10))


def test_delta_dv_zero_visits_on_both_sides_is_no_change():
    assert delta_dv(record(total_visits=0), record(total_visits=0)) == 0.0


def test_pii_reported_value():
    value = pii(61.71, 38.0, 0.5, 0.5)
    assert value == 0.5 * 61.71 + 0.5 * 38.0  # exactly the formula
    assert abs(value - 49.855) < 1e-14  # one ulp at this magnitude
    assert display_pii(value) == "49.85"


def test_pii_zero_and_identity():
    assert pii(0.0, 0.0, 0.5, 0.5) == 0.0
    assert pii(12.0, 12.0, 0.25, 0.75) == pytest.approx(12.0)


def test_pii_bad_weights():
    with pytest.raises(BadWeightsError):
        pii(1.0, 2.0, 0.7, 0.7)
    with pytest.raises(BadWeightsError):
        pii(1.0, 2.0, -0.5, 1.5)


@given(
    st.floats(-100, 100), st.floats(-100, 100),
    st.floats(0.0, 1.0),
)
def test_pii_affine_and_symmetric(dpd, ddv, w1):
    w2 = 1.0 - w1
    base = pii(dpd, ddv, w1, w2)
    assert base == pytest.approx(w1 * dpd + w2 * ddv, abs=1e-9)
    swapped = pii(ddv, dpd, w2, w1)
    assert swapped == pytest.approx(base, abs=1e-9)


def test_compare_report_pairs_and_csv(tmp_path):
    base = record(detected_fraction=0.3, total_visits=1000, covered=0.3)
    fi = record(detected_fraction=0.9, total_visits=1500, covered=0.8)
    report = compare(base, fi)
    assert report.pii == pytest.approx(0.5 * 60.0 + 0.5 * 50.0)
    assert set(report.pairs) == {
        "covered_area_fraction", "detected_fraction", "mean_foraging_period_h",
        "mean_trips_per_sunshine_hour", "total_trips", "total_visits",
    }
    out = tmp_path / "comparison.csv"
    write_comparison_csv(out, report)
    lines = out.read_text().splitlines()
    assert lines[0] == "name,baseline,fi,delta,convention"
    pii_rows = [ln for ln in lines if ln.startswith("pii,")]
    assert len(pii_rows) == 1
    assert "display=55.0" in pii_rows[0]
    conventions = {ln.split(",")[4].split(";")[0] for ln in lines[1:]}
    assert "percentage_points" in conventions
    assert "relative_percent" in conventions


def test_display_pii_truncates_toward_zero():
    assert display_pii(49.855000000000004) == "49.85"
    assert display_pii(0.0) == "0.00"
    assert display_pii(-1.239) == "-1.23"
