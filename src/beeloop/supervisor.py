"""The feedback loop: observe coverage, place patches, tune the environment.

One loop pass: run the unassisted baseline season, fit the monitoring model
on its days, pick an environmental control by grid search over predicted
seasonal visits, then iterate: classify regions, compute the coverage loss
against the required labels, propose up to three waypoint patches for the
worst Low regions, re-run the season, and keep the change only if the loss
strictly fell. An iteration that fails to improve is rolled back and the
loop stops, so accepted-loss monotonicity and final-never-worse-than-baseline
hold exactly rather than on average.

All seasons in one loop share the run seed, and each records its walk in a
``WalkLog`` that the next candidate's walk resumes from. How patches key
their draws and what a resumed walk reuses are set out in
``beeloop.scouting``. Outputs are the bytes a full recompute gives. Logs are
held for the incumbent and the candidate only (the baseline is the first
incumbent), inside this loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import (
    Classifier,
    CoverageLabel,
    PatchProposal,
    PlacementPolicy,
    RegionFeatures,
    classify_regions,
    extract_features,
    proposal_fields,
    propose_patches,
)
from .errors import RegionSetMismatchError, write_utf8
from .foraging import BASE_CAP_H, ColonyParams, SeasonRecord, SeasonTotals, run_season
from .landscape import (
    CROP,
    CellGrid,
    Patch,
    PatchParams,
    RegionTiling,
    artificial_nectar,
    artificial_patches,
    derive_patches,
    tile_regions,
    with_artificial,
)
from .metrics import WEIGHT_SUM_TOL
from .monitor import FEATURE_NAMES, LinearModel, day_features, fit, predict, season_samples
from .scouting import ScoutParams, WalkLog
from .weather import EnvControl, WeatherSeries

PATCHES_PER_ITERATION = 3
# Largest accepted temperature uplift, deg C: far beyond any day's gap to the
# 15 C foraging gate in the bundled climate, so a larger bound adds nothing.
MAX_TEMP_UPLIFT_C = 50.0
# Most control grid steps per axis. The search costs steps**2 x season days:
# at 401 it took 0.4 s over the desk season and 0.8 s over a full year on a
# 2-vCPU Xeon, about as long as a whole default desk ``fi`` run.
MAX_CONTROL_GRID_STEPS = 401


@dataclass(frozen=True)
class UserConfig:
    required_label: CoverageLabel = CoverageLabel.NORMAL
    max_artificial_patches: int = 30
    max_iterations: int = 10
    loss_tolerance: float = 0.0
    w1: float = 0.5
    w2: float = 0.5

    def __post_init__(self):
        if not (self.w1 >= 0 and self.w2 >= 0 and abs(self.w1 + self.w2 - 1.0) <= WEIGHT_SUM_TOL):
            raise ValueError("weights must be non-negative and sum to 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.max_artificial_patches < 0:
            raise ValueError("max_artificial_patches must be >= 0")
        if not self.loss_tolerance >= 0:
            raise ValueError("loss_tolerance must be >= 0")


@dataclass(frozen=True)
class ControlBounds:
    max_temp_uplift: float = 3.0
    max_extra_light_h: float = 5.0

    def __post_init__(self):
        if not (self.max_temp_uplift >= 0 and self.max_extra_light_h >= 0):
            raise ValueError("max_temp_uplift and max_extra_light_h must be >= 0")
        # No day's light passes the 24 h cap, so more extra light acts as 24 h.
        if self.max_extra_light_h > 24.0:
            raise ValueError("max_extra_light_h must be <= 24")
        if self.max_temp_uplift > MAX_TEMP_UPLIFT_C:
            raise ValueError(f"max_temp_uplift must be <= {MAX_TEMP_UPLIFT_C!r}")


@dataclass(frozen=True)
class LoopSettings:
    """Everything the loop needs beyond the user-facing knobs."""

    patch_params: PatchParams = PatchParams()
    scout_cadence_days: int = 7
    base_cap_h: float = BASE_CAP_H
    fi_cap_h: float = 16.0
    region_rows: int = 8
    region_cols: int = 8
    placement: PlacementPolicy = PlacementPolicy()
    bounds: ControlBounds = ControlBounds()
    control_grid_steps: int = 7
    refit_monitor_each_iteration: bool = False

    def __post_init__(self):
        if not (0.0 < self.base_cap_h <= 24.0 and 0.0 < self.fi_cap_h <= 24.0):
            raise ValueError("base_cap_h and fi_cap_h must be in (0, 24]")
        if self.scout_cadence_days < 1 or self.control_grid_steps < 1:
            raise ValueError("scout_cadence_days and control_grid_steps must be >= 1")
        if self.control_grid_steps > MAX_CONTROL_GRID_STEPS:
            raise ValueError(f"control_grid_steps must be <= {MAX_CONTROL_GRID_STEPS}")

    def cap_h(self, ctrl: EnvControl | None) -> float:
        """Daily foraging hour cap: the FI cap once a control acts."""
        return self.base_cap_h if ctrl is None else self.fi_cap_h


@dataclass(frozen=True)
class LoopStep:
    """One accepted iteration: its coverage loss and its season's totals.

    A step's iteration number is its position in the loop's steps, from 1.
    """

    loss: float
    totals: SeasonTotals


@dataclass(frozen=True)
class FiPlan:
    placed_patches: tuple[PatchProposal, ...]
    env_control: EnvControl
    iterations_used: int
    final_loss: float
    # The final landscape's patches and (features, label) per region, as the
    # loop derived them when it accepted its last iteration.
    final_patches: tuple[Patch, ...]
    region_labels: tuple[tuple[RegionFeatures, CoverageLabel], ...]


@dataclass(frozen=True)
class _Evaluation:
    """One landscape run for a season under one control, then classified."""

    grid: CellGrid
    patches: list[Patch]
    ctrl: EnvControl | None
    season: SeasonRecord
    features: list[RegionFeatures]
    labels: dict[int, CoverageLabel]
    log: WalkLog  # the season's walk, for a candidate to resume from

    def labeled(self) -> list[tuple[RegionFeatures, CoverageLabel]]:
        return [(f, self.labels[f.region_id]) for f in self.features]


def coverage_loss(
    labels: dict[int, CoverageLabel], required: dict[int, CoverageLabel]
) -> float:
    """Total shortfall in label ranks; over-coverage is free."""
    if set(labels) != set(required):
        raise RegionSetMismatchError(
            f"label regions {sorted(labels)} differ from required {sorted(required)}"
        )
    return float(
        sum(max(0, int(required[r]) - int(labels[r])) for r in labels)
    )


def required_labels(
    grid: CellGrid, tiling: RegionTiling, label: CoverageLabel, regions: list[int]
) -> dict[int, CoverageLabel]:
    """Require ``label`` in regions holding crop; others only need Low."""
    crop_cells = np.bincount(
        tiling.region_of_cell[grid.cells == CROP], minlength=tiling.n_regions
    ).tolist()
    return {r: label if crop_cells[r] else CoverageLabel.LOW for r in regions}


def optimize_env_control(
    model: LinearModel,
    weather: WeatherSeries,
    window: tuple[int, int],
    bounds: ControlBounds,
    grid_steps: int,
    cap: float,
) -> EnvControl:
    """Grid search maximizing predicted seasonal visits.

    Each axis runs from 0 to its bound in ``grid_steps`` even steps. Ties
    break toward smaller controls, lexicographically on uplift then extra
    light, so a flat objective returns (0, 0).

    One (extra, day) array per uplift gives that row's scores with the bits
    of the left-to-right sum of ``predict(model, day_features(...))`` over
    the days: ``predict`` scores the row's feature arrays, built from the
    uncontrolled days' features, and the days are summed left to right
    (``np.cumsum``, where ``np.sum`` would pair them). Rows are scanned in
    order for the first maximum, so memory follows one row. Scores may
    overflow to inf or nan, which compare as the loop's do.
    """
    if grid_steps < 1:
        raise ValueError("grid_steps must be >= 1")

    def axis(hi: float) -> list[float]:
        if grid_steps == 1 or hi == 0.0:
            return [0.0]
        return [hi * i / (grid_steps - 1) for i in range(grid_steps)]

    uplifts, extras = axis(bounds.max_temp_uplift), axis(bounds.max_extra_light_h)
    days = [day_features(weather.day(d), None, cap) for d in range(window[0], window[1] + 1)]
    # Every day lies in the control's window, so the control acts on all.
    # Extra light is never negative, so a cap before it and one after it
    # give the one cap after that ``day_features`` applies.
    temp, light, *harmonics = np.reshape(days, (-1, len(FEATURE_NAMES))).T
    light = np.minimum(light + np.array(extras)[:, None], cap)
    zeros = np.zeros((len(extras), 1))
    best, top = (0, 0), None
    with np.errstate(over="ignore", invalid="ignore"):
        for i, uplift in enumerate(uplifts):
            predictions = predict(model, (temp + uplift, light, *harmonics))
            row = np.cumsum(np.concatenate([zeros, predictions], axis=1), axis=1)[:, -1]
            for j, score in enumerate(row.tolist()):
                if top is None or score > top:
                    best, top = (i, j), score
    return EnvControl(uplifts[best[0]], extras[best[1]], window)


def run_fi_loop(
    grid: CellGrid,
    weather: WeatherSeries,
    colony: ColonyParams,
    scout_params: ScoutParams,
    classifier: Classifier,
    cfg: UserConfig,
    seed: int,
    settings: LoopSettings = LoopSettings(),
    collect_trajectories: bool = False,
) -> tuple[FiPlan, tuple[LoopStep, ...], SeasonRecord, SeasonRecord]:
    """Run the full loop; returns (plan, accepted steps, baseline season, final season).

    ``collect_trajectories`` is passed to the baseline season only.
    """
    window = colony.season
    # A zero-magnitude control is no control at all (baseline hour cap).
    no_control = EnvControl(0.0, 0.0, window)
    tiling = tile_regions(grid, settings.region_rows, settings.region_cols)
    base_patches = derive_patches(grid, settings.patch_params)
    # with_artificial only fills empty cells, so every candidate has these
    crop = [p for p in base_patches if not p.artificial]
    nectar = artificial_nectar(crop, settings.patch_params)
    beacon = (settings.patch_params.artificial_detect, nectar)

    def evaluate(
        cand_grid: CellGrid, patches: list[Patch], ctrl: EnvControl | None,
        collect: bool = False, incumbent: _Evaluation | None = None,
    ) -> _Evaluation:
        log = WalkLog(incumbent.log if incumbent else None)
        season = run_season(
            cand_grid, patches, weather, ctrl, colony, settings.scout_cadence_days,
            scout_params, seed, settings.cap_h(ctrl), collect, log,
        )
        feats = extract_features(season.scout_report.coverage, tiling, cand_grid)
        labels = classify_regions(classifier, feats)
        return _Evaluation(cand_grid, patches, ctrl, season, feats, labels, log)

    def choose_control(incumbent: _Evaluation) -> EnvControl | None:
        """Fit the monitor on the incumbent's season; pick the next control.

        A season that cannot identify the monitor, with fewer days than
        coefficients or the same visits every day (an enclosed hive, no
        crop), gives no control.
        """
        samples = season_samples(
            weather, ((d.day, d.visits) for d in incumbent.season.days), incumbent.ctrl,
            settings.cap_h(incumbent.ctrl),
        )
        visits = [s.target for s in samples]
        if len(samples) < len(FEATURE_NAMES) + 1 or min(visits) == max(visits):
            return None
        best = optimize_env_control(
            fit(samples), weather, window, settings.bounds, settings.control_grid_steps,
            settings.fi_cap_h,
        )
        return None if best == no_control else best

    cur = evaluate(grid, base_patches, None, collect_trajectories)
    baseline = cur.season
    required = required_labels(
        grid, tiling, cfg.required_label, [f.region_id for f in cur.features]
    )
    best_loss = coverage_loss(cur.labels, required)
    ctrl_eff = choose_control(cur)
    placed: list[PatchProposal] = []
    steps: list[LoopStep] = []

    for _ in range(cfg.max_iterations):
        if best_loss <= cfg.loss_tolerance:
            break
        if settings.refit_monitor_each_iteration and steps:
            ctrl_eff = choose_control(cur)
        remaining = cfg.max_artificial_patches - len(placed)
        proposals = propose_patches(
            cur.labeled(), tiling, cur.grid, min(PATCHES_PER_ITERATION, remaining), beacon,
            settings.placement,
        )
        ctrl_is_new = cur.ctrl is None and ctrl_eff is not None
        if not proposals and not ctrl_is_new:
            break

        cand_grid = with_artificial(cur.grid, [p.cell for p in proposals])
        beacons = artificial_patches(cand_grid, len(crop), nectar, settings.patch_params)
        cand = evaluate(cand_grid, crop + beacons, ctrl_eff, incumbent=cur)
        cand_loss = coverage_loss(cand.labels, required)

        if cand_loss >= best_loss:
            break  # roll back this iteration's patches and stop
        cur, best_loss = cand, cand_loss
        placed.extend(proposals)
        steps.append(LoopStep(cand_loss, cand.season.totals))

    plan = FiPlan(
        placed_patches=tuple(placed),
        env_control=cur.ctrl or no_control,
        iterations_used=len(steps),
        final_loss=best_loss,
        final_patches=tuple(cur.patches),
        region_labels=tuple(cur.labeled()),
    )
    return plan, tuple(steps), baseline, cur.season


def write_fi_plan_csv(path, plan: FiPlan) -> None:
    c = plan.env_control
    write_utf8(path, [
        "item,cell_x,cell_y,region_id,detect_prob,nectar_l,"
        "temp_uplift_c,extra_light_h,window_start,window_end,"
        "iterations_used,final_loss\n",
        *(f"patch,{proposal_fields(p)},,,,,,\n" for p in plan.placed_patches),
        f"control,,,,,,{c.temp_uplift!r},{c.extra_light_hours!r},"
        f"{c.active_window[0]},{c.active_window[1]},,\n",
        f"summary,,,,,,,,,,{plan.iterations_used},{plan.final_loss!r}\n",
    ])


def write_loop_trace_csv(path, steps: tuple[LoopStep, ...]) -> None:
    write_utf8(path, [
        "iteration,loss,covered_area_frac,detected_frac,total_visits\n",
        *(f"{i},{s.loss!r},{s.totals.covered_area_fraction!r},"
          f"{s.totals.detected_fraction!r},{s.totals.total_visits}\n"
          for i, s in enumerate(steps, 1)),
    ])
