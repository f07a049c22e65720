"""Seasonal daily foraging over the detected patch set.

Colony demography is frozen: the forager count never changes. Each day the
colony completes round(active_foragers * trips_per_forager_hour * hours)
trips; each trip visits ``patches_per_trip`` known patches, and with none
known no trip flies.

Scouting knowledge refreshes every ``scout_cadence_days`` days and is
cumulative: once a patch is known it stays known for the season. A season is
deterministic given its seed; the scouting walk within a season is one
behavioral draw (a fixed sub-seed), so longer foraging hours extend the same
walk rather than re-rolling it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from .errors import OutOfRangeValueError, write_utf8
from .landscape import CellGrid, Patch
from .rng import derive_seed, ordered_sum
from .scouting import ScoutParams, ScoutReport, WalkLog, simulate_at_checkpoints
from .weather import DAYS_PER_YEAR, DayWeather, EnvControl, WeatherSeries, foraging_hours

TRIPS_PER_SUN_HOUR_EPS = 1e-6
BASE_CAP_H = 9.0  # daily foraging hour cap while no control acts
# The season CSV's columns after ``day``.
SEASON_COLUMNS = (
    "foraging_h", "trips", "trips_per_sun_h", "total_visits", "detected_patches",
    "covered_area_frac",
)
# The season totals written to ``totals.json``, in its key order; each key is
# a ``SeasonTotals`` field.
TOTALS_KEYS = (
    "covered_area_fraction", "detected_fraction", "detected_patch_count",
    "mean_foraging_period_h", "mean_trips_per_sunshine_hour", "natural_patch_count",
    "total_trips", "total_visits",
)


@dataclass(frozen=True)
class ColonyParams:
    initial_workers: int = 10000
    trips_per_forager_hour: float = 0.1
    patches_per_trip: int = 1
    forager_fraction: float = 0.25
    season: tuple[int, int] = (91, 243)  # April through August

    def __post_init__(self):
        if not (self.initial_workers >= 0 and self.trips_per_forager_hour >= 0):
            raise ValueError("colony sizes and rates must be non-negative")
        if self.patches_per_trip < 0:
            raise ValueError("patches_per_trip must be non-negative")
        if not (0.0 <= self.forager_fraction <= 1.0):
            raise ValueError("forager_fraction must be in [0, 1]")
        # The monitor fits float(visits); above 2**53 day counts would alias.
        # 24 h is the longest daily cap a scenario can set.
        try:
            most_visits = (round(self.forager_fraction * self.initial_workers)
                           * self.trips_per_forager_hour * 24.0 * self.patches_per_trip)
        except OverflowError:
            most_visits = math.inf
        if most_visits > 2**53:
            raise ValueError("a day's visits at a 24 h cap must not exceed 2**53")
        if self.season[0] > self.season[1] + 1:
            raise ValueError("season start must not exceed end + 1")


@dataclass(frozen=True)
class DayRecord:
    day: int
    foraging_period: float  # hours
    visits: int
    completed_trips: int
    trips_per_sunshine_hour: float


@dataclass(frozen=True)
class SeasonTotals:
    total_visits: int
    total_trips: int
    mean_foraging_period_h: float
    mean_trips_per_sunshine_hour: float
    detected_patch_count: int  # non-artificial patches found
    natural_patch_count: int
    detected_fraction: float  # over non-artificial patches
    covered_area_fraction: float
    natural_patch_ids: tuple[int, ...]


@dataclass(frozen=True)
class SeasonRecord:
    days: list[DayRecord]
    totals: SeasonTotals
    # The season's one walk: coverage summed over its refreshes, detections
    # and fractions of the longest refresh, and each refresh's knowledge.
    # Its trajectories, if collected, are the first refresh with foraging
    # hours, or zero steps if there is none.
    scout_report: ScoutReport
    coverage_by_day: dict[int, tuple[int, float]]  # day -> (found patches, covered fraction)


def simulate_day(
    known: bool,
    dw: DayWeather,
    ctrl: EnvControl | None,
    colony: ColonyParams,
    day: int,
    cap_hours: float = BASE_CAP_H,
) -> DayRecord:
    """One day of foraging; ``known`` says whether the colony knows any patch."""
    period = foraging_hours(dw, ctrl, cap_hours)
    active = int(round(colony.forager_fraction * colony.initial_workers))
    if not known or period == 0.0 or active == 0:
        return DayRecord(day, period, 0, 0, 0.0)
    trips = int(round(active * colony.trips_per_forager_hour * period))
    return DayRecord(
        day=day,
        foraging_period=period,
        visits=trips * colony.patches_per_trip,
        completed_trips=trips,
        trips_per_sunshine_hour=trips / max(dw.sunshine_hours, TRIPS_PER_SUN_HOUR_EPS),
    )


def aggregate_totals(
    days: list[DayRecord], report: ScoutReport, natural: set[int]
) -> SeasonTotals:
    """The season's sums and means over ``days``, and its scouting totals.

    ``natural`` holds the ids of the non-artificial patches; the detected
    count and fraction are over those alone.
    """
    detected = len(report.detected_patch_ids & natural)
    n_days = len(days)
    return SeasonTotals(
        total_visits=sum(d.visits for d in days),
        total_trips=sum(d.completed_trips for d in days),
        mean_foraging_period_h=(
            ordered_sum(d.foraging_period for d in days) / n_days if n_days else 0.0
        ),
        mean_trips_per_sunshine_hour=(
            ordered_sum(d.trips_per_sunshine_hour for d in days) / n_days if n_days else 0.0
        ),
        detected_patch_count=detected,
        natural_patch_count=len(natural),
        detected_fraction=detected / len(natural) if natural else 0.0,
        covered_area_fraction=report.covered_area_fraction,
        natural_patch_ids=tuple(sorted(natural)),
    )


def run_season(
    grid: CellGrid,
    patches: list[Patch],
    weather: WeatherSeries,
    ctrl: EnvControl | None,
    colony: ColonyParams,
    scout_cadence_days: int,
    scout_params: ScoutParams,
    seed: int,
    cap_hours: float = BASE_CAP_H,
    collect_trajectories: bool = False,
    log: WalkLog | None = None,
) -> SeasonRecord:
    """Simulate the season window day by day.

    Scouting refreshes on the first day and every cadence days after. All
    refreshes share one walk seed, so a refresh with h hours is the h-hour
    prefix of the season's one walk, read at each refresh's step count. The
    walk's report sums the refreshes' visit counts, and on each day the
    colony knows what the longest prefix walked so far detected, which is
    every detection so far. With ``collect_trajectories`` the report's
    trajectories are the paths of the first refresh whose day has foraging
    hours. A non-empty season window must lie within the weather year.
    ``log`` goes to the walk: it records it, and resumes it from its base's
    walk if it has one. A control sets only the refresh step counts, so with
    ``log=WalkLog(base)``, ``base`` recorded on the same grid and patches to
    at least this season's longest refresh, the season under any control is
    a read of ``base``'s walk: it resumes at ``base``'s last saved state and
    walks no step.
    """
    if scout_cadence_days < 1:
        raise ValueError("scout_cadence_days must be >= 1")
    start, end = colony.season
    if start <= end and not 1 <= start <= end <= DAYS_PER_YEAR:
        raise OutOfRangeValueError(f"season {start}..{end} outside 1..{DAYS_PER_YEAR}")
    season_days = list(range(start, end + 1))
    refresh_days = season_days[::scout_cadence_days]

    scout_seed = derive_seed(seed, "scout")
    hours_by_day = {d: foraging_hours(weather.day(d), ctrl, cap_hours) for d in refresh_days}
    steps_by_day = {d: scout_params.steps(h) for d, h in hours_by_day.items()}
    refresh_steps = list(steps_by_day.values())
    report = simulate_at_checkpoints(
        grid, patches, scout_params, refresh_steps, scout_seed, collect_trajectories, log
    )
    if collect_trajectories:
        first = next((d for d in refresh_days if hours_by_day[d] > 0), None)
        report = replace(report, trajectories=report.trajectories[:, : steps_by_day.get(first, 0)])

    walked = 0
    days: list[DayRecord] = []
    coverage_by_day: dict[int, tuple[int, float]] = {}
    natural = {p.id for p in patches if not p.artificial}

    for day in season_days:
        # The first day refreshes, so ``walked`` is always a checkpoint.
        walked = max(walked, steps_by_day.get(day, 0))
        found, covered = report.at_checkpoint[walked]
        days.append(simulate_day(bool(found), weather.day(day), ctrl, colony, day, cap_hours))
        coverage_by_day[day] = (len(found & natural), covered)

    return SeasonRecord(
        days=days,
        totals=aggregate_totals(days, report, natural),
        scout_report=report,
        coverage_by_day=coverage_by_day,
    )


def write_season_csv(path, record: SeasonRecord) -> None:
    cover = record.coverage_by_day
    write_utf8(path, [
        ",".join(["day", *SEASON_COLUMNS]) + "\n",
        *(f"{d.day},{d.foraging_period!r},{d.completed_trips},"
          f"{d.trips_per_sunshine_hour!r},{d.visits},"
          f"{cover[d.day][0]},{cover[d.day][1]!r}\n" for d in record.days),
    ])


def write_totals(path, totals: SeasonTotals) -> None:
    """Flat key-value text file (JSON object, sorted keys, one per line)."""
    items = {key: getattr(totals, key) for key in TOTALS_KEYS}
    write_utf8(path, [json.dumps(items, indent=2) + "\n"])
