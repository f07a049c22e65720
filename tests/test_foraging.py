import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beeloop.foraging import ColonyParams, run_season, simulate_day, write_season_csv
from beeloop.landscape import derive_patches, parse_map
from beeloop.rng import derive_seed
from beeloop.scouting import ScoutParams, run_scouting
from beeloop.weather import ClimateProfile, DayWeather, foraging_hours, synth_weather

from conftest import make_map

FAST_SCOUTS = ScoutParams(n_scouts=25, steps_per_hour=20)


def warm_day(day=150, sun=8.0):
    return DayWeather(day=day, max_temp=20.0, sunshine_hours=sun)


def test_cold_day_is_all_zero():
    rec = simulate_day(True, DayWeather(5, 10.0, 8.0), None, ColonyParams(), 5)
    assert rec.completed_trips == 0
    assert rec.visits == 0
    assert rec.foraging_period == 0.0


def test_single_patch_takes_all_visits():
    colony = ColonyParams(initial_workers=1000, forager_fraction=0.5,
                          trips_per_forager_hour=0.1)
    rec = simulate_day(True, warm_day(), None, colony, 150)
    assert rec.completed_trips == round(500 * 0.1 * 8.0)
    assert rec.visits == rec.completed_trips * colony.patches_per_trip


def test_conservation_exact():
    colony = ColonyParams(patches_per_trip=3)
    rec = simulate_day(True, warm_day(), None, colony, 150)
    assert rec.visits == rec.completed_trips * 3


def test_colony_whose_day_visits_pass_2_53_rejected():
    # one forager at 2**48 trips an hour flies 24 * 2**48 < 2**53 trips in 24 h
    ColonyParams(initial_workers=1, forager_fraction=1.0, trips_per_forager_hour=2.0**48)
    for kw in ({"initial_workers": 2}, {"patches_per_trip": 2}):
        with pytest.raises(ValueError, match=r"2\*\*53"):
            ColonyParams(**{"initial_workers": 1, "forager_fraction": 1.0,
                            "trips_per_forager_hour": 2.0**48, **kw})
    for kw in ({"trips_per_forager_hour": 1e300}, {"initial_workers": 10**400}):
        with pytest.raises(ValueError, match=r"2\*\*53"):
            ColonyParams(**kw)


@given(
    st.integers(0, 5000),
    st.floats(0.0, 1.0),
    st.floats(0.0, 0.5),
    st.integers(1, 4),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_conservation_randomized(workers, fraction, rate, per_trip, known):
    colony = ColonyParams(
        initial_workers=workers, forager_fraction=fraction,
        trips_per_forager_hour=rate, patches_per_trip=per_trip,
    )
    rec = simulate_day(known, warm_day(), None, colony, 150)
    assert rec.visits == rec.completed_trips * per_trip


def small_world():
    grid = parse_map(make_map([
        "YY.......",
        "YY...Y...",
        "....H....",
        ".........",
        ".......YY",
    ], cell_size=100.0))
    return grid, derive_patches(grid)


def test_empty_season_window():
    grid, patches = small_world()
    colony = ColonyParams(season=(100, 99))
    record = run_season(grid, patches, synth_weather(1), None, colony, 7,
                        FAST_SCOUTS, seed=1)
    assert record.days == []
    assert record.totals.total_visits == 0
    assert record.totals.covered_area_fraction == 0.0


def test_all_cold_year_has_zero_totals():
    grid, patches = small_world()
    cold = ClimateProfile(temp_mean_c=5.0, temp_amplitude_c=0.0, temp_noise_c=0.0)
    record = run_season(grid, patches, synth_weather(1, cold), None,
                        ColonyParams(), 7, FAST_SCOUTS, seed=1)
    assert record.totals.total_visits == 0
    assert record.totals.total_trips == 0
    assert record.totals.covered_area_fraction == 0.0


def test_zero_forager_fraction_zeroes_metrics():
    grid, patches = small_world()
    colony = ColonyParams(forager_fraction=0.0)
    record = run_season(grid, patches, synth_weather(1), None, colony, 7,
                        FAST_SCOUTS, seed=1)
    assert record.totals.total_visits == 0
    assert record.totals.total_trips == 0


def test_season_deterministic():
    grid, patches = small_world()
    a = run_season(grid, patches, synth_weather(3), None, ColonyParams(), 7,
                   FAST_SCOUTS, seed=5)
    b = run_season(grid, patches, synth_weather(3), None, ColonyParams(), 7,
                   FAST_SCOUTS, seed=5)
    assert a.totals == b.totals
    assert a.days == b.days


def independent_fold(days, report, patches):
    """Second implementation of the aggregation, kept deliberately naive."""
    natural = sorted(p.id for p in patches if not p.artificial)
    found = sorted(set(natural) & set(report.detected_patch_ids))
    visits = 0
    trips = 0
    period_sum = 0.0
    tpsh_sum = 0.0
    for d in days:
        visits += d.visits
        trips += d.completed_trips
        period_sum += d.foraging_period
        tpsh_sum += d.trips_per_sunshine_hour
    n = len(days)
    return {
        "total_visits": visits,
        "total_trips": trips,
        "mean_foraging_period_h": period_sum / n if n else 0.0,
        "mean_trips_per_sunshine_hour": tpsh_sum / n if n else 0.0,
        "detected_patch_count": len(found),
        "detected_fraction": len(found) / len(natural) if natural else 0.0,
    }


def test_totals_match_independent_fold():
    grid, patches = small_world()
    record = run_season(grid, patches, synth_weather(9), None, ColonyParams(), 7,
                        FAST_SCOUTS, seed=2)
    expect = independent_fold(record.days, record.scout_report, patches)
    got = record.totals
    assert got.total_visits == expect["total_visits"]
    assert got.total_trips == expect["total_trips"]
    assert got.mean_foraging_period_h == pytest.approx(expect["mean_foraging_period_h"])
    assert got.mean_trips_per_sunshine_hour == pytest.approx(
        expect["mean_trips_per_sunshine_hour"]
    )
    assert got.detected_patch_count == expect["detected_patch_count"]
    assert got.detected_fraction == expect["detected_fraction"]


@pytest.mark.parametrize(
    "season,cadence",
    [
        ((130, 140), 1),  # one refresh a day: step counts repeat
        ((110, 130), 3),  # opens on cold days: refreshes with zero hours
        ((119, 125), 4),  # the second refresh walks fewer steps than the first
        ((100, 99), 7),  # empty season
    ],
)
def test_season_scouting_matches_independent_fold(season, cadence):
    """Coverage sums every refresh's walk; the colony knows every detection so far."""
    grid, patches = small_world()
    weather = synth_weather(1)
    scouts = ScoutParams(n_scouts=3, steps_per_hour=2)  # too few to see the whole map
    record = run_season(grid, patches, weather, None, ColonyParams(season=season),
                        cadence, scouts, seed=6)
    natural = {p.id for p in patches if not p.artificial}
    coverage = np.zeros((grid.height, grid.width), dtype=np.int64)
    known = set()
    for day in range(season[0], season[1] + 1):
        if (day - season[0]) % cadence == 0:
            hours = foraging_hours(weather.day(day), None, 9.0)
            rep = run_scouting(grid, patches, scouts, hours, derive_seed(6, "scout"))
            coverage = coverage + rep.coverage
            known = known | rep.detected_patch_ids
        frac = np.count_nonzero(coverage) / grid.traversable_count()
        assert record.coverage_by_day[day] == (len(known & natural), frac)
    assert np.array_equal(record.scout_report.coverage, coverage)
    assert record.scout_report.detected_patch_ids == known


def test_warmer_sunnier_year_never_loses_trips():
    grid, patches = small_world()
    base_profile = ClimateProfile(temp_noise_c=0.0, sunshine_noise_h=0.0)
    warm_profile = ClimateProfile(
        temp_mean_c=base_profile.temp_mean_c + 4.0,
        temp_noise_c=0.0,
        sunshine_mean_h=base_profile.sunshine_mean_h + 2.0,
        sunshine_noise_h=0.0,
    )
    cold = run_season(grid, patches, synth_weather(1, base_profile), None,
                      ColonyParams(), 7, FAST_SCOUTS, seed=4)
    warm = run_season(grid, patches, synth_weather(1, warm_profile), None,
                      ColonyParams(), 7, FAST_SCOUTS, seed=4)
    assert warm.totals.total_trips >= cold.totals.total_trips
    for c, w in zip(cold.days, warm.days):
        assert w.completed_trips >= c.completed_trips


def test_day_records_cover_window():
    grid, patches = small_world()
    colony = ColonyParams(season=(120, 140))
    record = run_season(grid, patches, synth_weather(6), None, colony, 5,
                        FAST_SCOUTS, seed=3)
    assert [d.day for d in record.days] == list(range(120, 141))
    assert set(record.coverage_by_day) == set(range(120, 141))


def test_golden_desk_season(tmp_path, desk_grid, desk_patches):
    record = run_season(desk_grid, desk_patches, synth_weather(42), None,
                        ColonyParams(), 7, ScoutParams(), seed=1)
    out = tmp_path / "season.csv"
    write_season_csv(out, record)
    golden = Path(__file__).parent / "golden" / "season_desk_seed1.csv"
    assert out.read_bytes() == golden.read_bytes()


def test_colony_season_one_scout_per_bee(tmp_path, desk_grid, desk_patches):
    """The desk baseline season at 1:1 scale (10 000 scouts), pinned bytes."""
    record = run_season(desk_grid, desk_patches, synth_weather(42), None,
                        ColonyParams(), 7, ScoutParams(n_scouts=10000), seed=1)
    out = tmp_path / "season.csv"
    write_season_csv(out, record)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "8299fbd74cdaa7bbb91d48651f21a38caaa4c6bf96bdad98f27c0614d3769c75"
    )
    assert hashlib.sha256(record.scout_report.coverage.tobytes()).hexdigest() == (
        "5e3d792a466480973c8308af88d50ba428a8a810f57d4d458539a0c2e4f47ef9"
    )
