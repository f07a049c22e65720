import gc
import inspect
import math
import tracemalloc
import warnings
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from beeloop.control import (
    CoverageLabel,
    ThresholdClassifier,
    classify_regions,
    extract_features,
)
from beeloop import supervisor
from beeloop.errors import RegionSetMismatchError
from beeloop.foraging import ColonyParams
from beeloop.landscape import derive_patches, tile_regions, with_artificial
from beeloop.monitor import LinearModel, day_features, predict
from beeloop.scouting import ScoutParams
from beeloop.supervisor import (
    ControlBounds,
    LoopSettings,
    UserConfig,
    coverage_loss,
    optimize_env_control,
    required_labels,
    run_fi_loop,
)
from beeloop.weather import EnvControl, synth_weather

LOW, NORMAL, HIGH = CoverageLabel.LOW, CoverageLabel.NORMAL, CoverageLabel.HIGH
_WEATHER = synth_weather(1)

FAST_SCOUTS = ScoutParams(n_scouts=40)
FAST_COLONY = ColonyParams(season=(120, 180))
FAST_SETTINGS = LoopSettings(region_rows=4, region_cols=4, scout_cadence_days=10)


def test_coverage_loss_zero_when_satisfied():
    labels = {0: NORMAL, 1: HIGH}
    required = {0: NORMAL, 1: NORMAL}
    assert coverage_loss(labels, required) == 0.0


def test_coverage_loss_rank_shortfall():
    assert coverage_loss({0: LOW}, {0: HIGH}) == 2.0
    assert coverage_loss({0: LOW, 1: LOW}, {0: NORMAL, 1: HIGH}) == 3.0


def test_coverage_loss_over_coverage_free():
    assert coverage_loss({0: HIGH}, {0: LOW}) == 0.0


def test_coverage_loss_region_mismatch():
    with pytest.raises(RegionSetMismatchError):
        coverage_loss({0: LOW}, {0: LOW, 1: LOW})


def test_required_labels_only_for_crop_regions(desk_grid):
    tiling = tile_regions(desk_grid, 8, 8)
    regions = list(range(64))
    required = required_labels(desk_grid, tiling, NORMAL, regions)
    assert set(required) == set(regions)
    assert all(label in (NORMAL, LOW) for label in required.values())
    assert sum(1 for v in required.values() if v is NORMAL) > 50


def zero_model():
    return LinearModel((0.0, 0.0, 0.0, 0.0), 10.0, 0.0)


def test_optimize_zero_model_picks_smallest_controls():
    ctrl = optimize_env_control(
        zero_model(), synth_weather(1), (120, 180), ControlBounds(3.0, 5.0), 7, 16.0
    )
    assert (ctrl.temp_uplift, ctrl.extra_light_hours) == (0.0, 0.0)


def test_optimize_light_coefficient_maxes_light_only():
    model = LinearModel((0.0, 5.0, 0.0, 0.0), 0.0, 0.0)
    ctrl = optimize_env_control(
        model, synth_weather(1), (120, 180), ControlBounds(3.0, 5.0), 7, 16.0
    )
    assert ctrl.temp_uplift == 0.0
    assert ctrl.extra_light_hours == 5.0


def reference_optimize(model, weather, window, max_uplift, max_light, grid_steps, cap):
    """The grid search written with explicit lower bounds, both at 0.0."""
    def axis(lo, hi):
        if grid_steps == 1 or hi == lo:
            return [lo]
        return [lo + (hi - lo) * i / (grid_steps - 1) for i in range(grid_steps)]

    days = [weather.day(d) for d in range(window[0], window[1] + 1)]
    best = None
    best_score = None
    for uplift in axis(0.0, max_uplift):
        for extra in axis(0.0, max_light):
            ctrl = EnvControl(uplift, extra, window)
            score = sum(predict(model, day_features(dw, ctrl, cap)) for dw in days)
            if best_score is None or score > best_score:
                best, best_score = ctrl, score
    return best


_coef = st.floats(-50.0, 50.0)
_max_bound = st.one_of(st.just(0.0), st.floats(0.0, 10.0))


@settings(max_examples=60, deadline=None)
@given(
    coefs=st.tuples(_coef, _coef, _coef, _coef),
    intercept=_coef,
    max_uplift=_max_bound,
    max_light=_max_bound,
    grid_steps=st.integers(1, 9),
    start=st.integers(100, 200),
    length=st.integers(0, 4),
)
def test_optimize_matches_search_from_zero(
    coefs, intercept, max_uplift, max_light, grid_steps, start, length
):
    model = LinearModel(coefs, intercept, 0.0)
    window = (start, start + length)
    args = (model, _WEATHER, window)
    assert optimize_env_control(
        *args, ControlBounds(max_uplift, max_light), grid_steps, 16.0
    ) == reference_optimize(*args, max_uplift, max_light, grid_steps, 16.0)


def scalar_optimize(model, weather, window, bounds, grid_steps, cap):
    """The per-control, per-day scalar loop the array search must match bit for bit."""
    def axis(hi):
        if grid_steps == 1 or hi == 0.0:
            return [0.0]
        return [hi * i / (grid_steps - 1) for i in range(grid_steps)]

    days = [weather.day(d) for d in range(window[0], window[1] + 1)]
    best = None
    best_score = None
    for uplift in axis(bounds.max_temp_uplift):
        for extra in axis(bounds.max_extra_light_h):
            ctrl = EnvControl(uplift, extra, window)
            score = 0
            for dw in days:  # left to right, as sum() adds on Python 3.10 and 3.11
                score += predict(model, day_features(dw, ctrl, cap))
            if best_score is None or score > best_score:
                best, best_score = ctrl, score
    return best


_flat_or_coef = st.one_of(st.just(0.0), _coef)


@settings(max_examples=150, deadline=None)
@given(
    coefs=st.tuples(_flat_or_coef, _flat_or_coef, _flat_or_coef, _flat_or_coef),
    intercept=_coef,
    max_uplift=_max_bound,
    max_light=_max_bound,
    grid_steps=st.integers(1, 9),
    cap=st.floats(0.5, 24.0),
    start=st.integers(1, 300),
    length=st.integers(-1, 60),
    weather_seed=st.integers(0, 3),
)
def test_array_search_matches_scalar_loop(
    coefs, intercept, max_uplift, max_light, grid_steps, cap, start, length, weather_seed
):
    model = LinearModel(coefs, intercept, 0.0)
    args = (model, synth_weather(weather_seed), (start, start + length),
            ControlBounds(max_uplift, max_light), grid_steps, cap)
    assert optimize_env_control(*args) == scalar_optimize(*args)


@pytest.mark.parametrize("grid_steps", [1, 2, 7])
@pytest.mark.parametrize("bounds", [ControlBounds(0.0, 0.0), ControlBounds(3.0, 5.0)])
def test_flat_objective_returns_zero_control(grid_steps, bounds):
    model = LinearModel((0.0, 0.0, 0.0, 0.0), 123.0, 0.0)
    args = (model, _WEATHER, (120, 180), bounds, grid_steps, 16.0)
    ctrl = optimize_env_control(*args)
    assert (ctrl.temp_uplift, ctrl.extra_light_hours) == (0.0, 0.0)
    assert ctrl == scalar_optimize(*args)


def test_overflowing_control_search_warns_nothing():
    """Scores that overflow to inf or nan warn nothing; outside pytest a
    warning would print to stderr."""
    model = LinearModel((1e308, 1e308, 0.0, 0.0), 1e308, 0.0)
    args = (model, _WEATHER, ColonyParams().season, ControlBounds(), 7, 16.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ctrl = optimize_env_control(*args)
    assert ctrl == scalar_optimize(*args)


def test_control_bounds_accept_their_ceilings():
    ControlBounds(supervisor.MAX_TEMP_UPLIFT_C, 24.0)
    with pytest.raises(ValueError):
        ControlBounds(max_temp_uplift=supervisor.MAX_TEMP_UPLIFT_C + 0.5)
    with pytest.raises(ValueError):
        ControlBounds(max_extra_light_h=24.5)


def test_control_search_memory_follows_one_uplift_row():
    """150 x 150 controls over the desk season. All (uplift, extra, day)
    arrays at once peaked at 105.8 MiB of traced allocations."""
    model = LinearModel((0.1, 2.0, -1.0, 0.5), 10.0, 0.0)
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        optimize_env_control(model, _WEATHER, ColonyParams().season, ControlBounds(), 150, 16.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_loop_stops_immediately_when_tolerance_met(desk_grid):
    cfg = UserConfig(loss_tolerance=math.inf)
    plan, trace, baseline, final = run_fi_loop(
        desk_grid, synth_weather(8), FAST_COLONY, FAST_SCOUTS,
        ThresholdClassifier(), cfg, seed=3, settings=FAST_SETTINGS,
    )
    assert plan.iterations_used == 0
    assert plan.placed_patches == ()
    assert len(trace) == 0
    assert final is baseline


def test_loop_noop_without_budget_or_headroom(desk_grid):
    cfg = UserConfig(max_artificial_patches=0)
    settings = LoopSettings(
        region_rows=4, region_cols=4, scout_cadence_days=10,
        bounds=ControlBounds(max_temp_uplift=0.0, max_extra_light_h=0.0),
    )
    plan, trace, baseline, final = run_fi_loop(
        desk_grid, synth_weather(8), FAST_COLONY, FAST_SCOUTS,
        ThresholdClassifier(), cfg, seed=3, settings=settings,
    )
    assert plan.iterations_used == 0
    assert plan.placed_patches == ()
    assert plan.env_control.temp_uplift == 0.0
    assert final is baseline


def test_loop_invariants_on_desk(desk_grid):
    cfg = UserConfig(max_artificial_patches=9, max_iterations=4)
    plan, trace, baseline, final = run_fi_loop(
        desk_grid, synth_weather(8), FAST_COLONY, FAST_SCOUTS,
        ThresholdClassifier(), cfg, seed=7, settings=FAST_SETTINGS,
    )
    assert len(plan.placed_patches) <= 9
    assert plan.iterations_used == len(trace)
    losses = [s.loss for s in trace]
    assert losses == sorted(losses, reverse=True)
    assert len(set(losses)) == len(losses)  # strict decrease
    assert final.totals.total_visits >= baseline.totals.total_visits
    assert plan.final_loss == (losses[-1] if losses else plan.final_loss)


def test_loop_reproducible(desk_grid):
    cfg = UserConfig(max_artificial_patches=6, max_iterations=3)
    args = (
        desk_grid, synth_weather(8), FAST_COLONY, FAST_SCOUTS,
        ThresholdClassifier(), cfg,
    )
    plan_a, trace_a, base_a, final_a = run_fi_loop(*args, seed=11, settings=FAST_SETTINGS)
    plan_b, trace_b, base_b, final_b = run_fi_loop(*args, seed=11, settings=FAST_SETTINGS)
    assert plan_a == plan_b
    assert trace_a == trace_b
    assert base_a.totals == base_b.totals
    assert final_a.totals == final_b.totals


def test_loop_with_iterative_refit(desk_grid):
    import dataclasses

    cfg = UserConfig(max_artificial_patches=6, max_iterations=3)
    settings = dataclasses.replace(FAST_SETTINGS, refit_monitor_each_iteration=True)
    args = (
        desk_grid, synth_weather(8), FAST_COLONY, FAST_SCOUTS,
        ThresholdClassifier(), cfg,
    )
    plan_a, trace_a, base_a, final_a = run_fi_loop(*args, seed=13, settings=settings)
    plan_b, trace_b, base_b, final_b = run_fi_loop(*args, seed=13, settings=settings)
    assert plan_a == plan_b and trace_a == trace_b
    losses = [s.loss for s in trace_a]
    assert losses == sorted(losses, reverse=True)
    assert final_a.totals.total_visits >= base_a.totals.total_visits


def test_loop_releases_the_baseline_walk_log(monkeypatch, desk_grid):
    """Only the first candidate resumes from the baseline's walk, so its log
    is gone by the second candidate's season."""
    run_season = supervisor.run_season
    signature = inspect.signature(run_season)
    logs = []

    def spy(*args, **kwargs):
        logs.append(weakref.ref(signature.bind(*args, **kwargs).arguments["log"]))
        if len(logs) == 3:
            gc.collect()
            assert logs[0]() is None, "the baseline's walk log outlived the first candidate"
        return run_season(*args, **kwargs)

    monkeypatch.setattr(supervisor, "run_season", spy)
    cfg = UserConfig(max_artificial_patches=9, max_iterations=4)
    plan, trace, baseline, final = run_fi_loop(
        desk_grid, synth_weather(8), FAST_COLONY, FAST_SCOUTS,
        ThresholdClassifier(), cfg, seed=7, settings=FAST_SETTINGS,
    )
    assert plan.iterations_used >= 1 and len(logs) >= 3


def test_user_config_validation():
    with pytest.raises(ValueError):
        UserConfig(w1=0.7, w2=0.7)
    with pytest.raises(ValueError):
        UserConfig(max_iterations=0)
    with pytest.raises(ValueError):
        UserConfig(max_artificial_patches=-1)


@pytest.mark.parametrize(
    "bad",
    [
        {"base_cap_h": 30.0}, {"base_cap_h": 0.0}, {"fi_cap_h": 24.5},
        {"scout_cadence_days": 0}, {"control_grid_steps": 0},
    ],
)
def test_loop_settings_validation(bad):
    with pytest.raises(ValueError):
        LoopSettings(**bad)
    LoopSettings(base_cap_h=24.0, fi_cap_h=0.5, scout_cadence_days=1, control_grid_steps=1)


def _assert_final_artifacts_rederive(grid, plan, final, classifier, settings):
    """The loop's final patches and labels equal a fresh derivation from the plan."""
    final_grid = with_artificial(grid, [p.cell for p in plan.placed_patches])
    assert list(plan.final_patches) == derive_patches(final_grid, settings.patch_params)
    tiling = tile_regions(final_grid, settings.region_rows, settings.region_cols)
    feats = extract_features(final.scout_report.coverage, tiling, final_grid)
    labels = classify_regions(classifier, feats)
    assert list(plan.region_labels) == [(f, labels[f.region_id]) for f in feats]


def test_loop_final_artifacts_after_accepted_iterations(desk_grid):
    cfg = UserConfig(max_artificial_patches=9, max_iterations=4)
    classifier = ThresholdClassifier()
    plan, trace, baseline, final = run_fi_loop(
        desk_grid, synth_weather(8), FAST_COLONY, FAST_SCOUTS,
        classifier, cfg, seed=7, settings=FAST_SETTINGS,
    )
    assert plan.iterations_used >= 1
    assert any(p.artificial for p in plan.final_patches)
    _assert_final_artifacts_rederive(desk_grid, plan, final, classifier, FAST_SETTINGS)


def test_loop_final_artifacts_with_artificial_cells_in_the_map(desk_grid):
    """Map ``A`` cells are artificial patches of every candidate, and placed
    patches carry the nectar the landscape gives artificial patches."""
    grid = with_artificial(desk_grid, [(0, 0), (1, 0), (0, 1), (40, 5)])
    cfg = UserConfig(max_artificial_patches=9, max_iterations=4)
    classifier = ThresholdClassifier()
    plan, trace, baseline, final = run_fi_loop(
        grid, synth_weather(8), FAST_COLONY, FAST_SCOUTS,
        classifier, cfg, seed=7, settings=FAST_SETTINGS,
    )
    assert plan.iterations_used >= 1
    artificial = [p for p in plan.final_patches if p.artificial]
    assert len(artificial) == 2 + len(plan.placed_patches)
    assert {p.nectar_quantity for p in plan.placed_patches} == {
        p.nectar_quantity for p in artificial
    }
    _assert_final_artifacts_rederive(grid, plan, final, classifier, FAST_SETTINGS)


def test_loop_final_artifacts_without_iterations(desk_grid):
    cfg = UserConfig(max_artificial_patches=0)
    settings = LoopSettings(
        region_rows=4, region_cols=4, scout_cadence_days=10,
        bounds=ControlBounds(max_temp_uplift=0.0, max_extra_light_h=0.0),
    )
    classifier = ThresholdClassifier()
    plan, trace, baseline, final = run_fi_loop(
        desk_grid, synth_weather(8), FAST_COLONY, FAST_SCOUTS,
        classifier, cfg, seed=3, settings=settings,
    )
    assert plan.iterations_used == 0
    _assert_final_artifacts_rederive(desk_grid, plan, final, classifier, settings)


def test_control_grid_steps_bounded_by_search_cost():
    assert LoopSettings(control_grid_steps=401).control_grid_steps == 401
    for value in (402, 10**400):
        with pytest.raises(ValueError):
            LoopSettings(control_grid_steps=value)
