"""Daily weather and environmental controls gating foraging.

Foraging needs an effective maximum temperature of at least 15 C; below it
the day yields zero foraging hours. Available hours are sunshine hours plus
any extra light from an active control, capped by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DuplicateDayError, MissingDayError, OutOfRangeValueError, plain_number
from .rng import generator

import math

FORAGING_MIN_TEMP_C = 15.0
DAYS_PER_YEAR = 365


@dataclass(frozen=True)
class DayWeather:
    day: int  # 1..365
    max_temp: float  # deg C
    sunshine_hours: float  # 0..24


@dataclass(frozen=True)
class EnvControl:
    """Temperature uplift and extra light hours over an active day window."""

    temp_uplift: float = 0.0
    extra_light_hours: float = 0.0
    active_window: tuple[int, int] = (1, DAYS_PER_YEAR)

    def __post_init__(self):
        if not (self.temp_uplift >= 0 and self.extra_light_hours >= 0):
            raise ValueError("control magnitudes must be non-negative")
        # an empty window (end = start - 1) matches an empty season
        if self.active_window[0] > self.active_window[1] + 1:
            raise ValueError("active_window start must not exceed end + 1")

    def active_on(self, day: int) -> bool:
        return self.active_window[0] <= day <= self.active_window[1]


@dataclass
class WeatherSeries:
    """A full year of DayWeather, indexable by day number."""

    days: list[DayWeather]

    def __post_init__(self):
        self.days = list(self.days)
        if len(self.days) != DAYS_PER_YEAR:
            raise MissingDayError(f"expected {DAYS_PER_YEAR} days, got {len(self.days)}")
        for i, dw in enumerate(self.days, start=1):
            if dw.day != i:
                raise MissingDayError(f"day {i} missing or out of order")

    def day(self, day: int) -> DayWeather:
        if not 1 <= day <= DAYS_PER_YEAR:
            raise OutOfRangeValueError(f"day {day} outside 1..{DAYS_PER_YEAR}")
        return self.days[day - 1]


@dataclass(frozen=True)
class ClimateProfile:
    """Seasonal sinusoid parameters for the synthetic weather generator.

    Temperature and sunshine follow mean + amplitude * cos(2 pi (d - peak_day)
    / 365) plus Gaussian noise, clamped to physical ranges. Defaults sketch a
    cool maritime year: spring days often below the 15 C foraging threshold.
    """

    temp_mean_c: float = 11.0
    temp_amplitude_c: float = 8.0
    temp_noise_c: float = 2.5
    sunshine_mean_h: float = 8.0
    sunshine_amplitude_h: float = 5.0
    sunshine_noise_h: float = 1.5
    peak_day: int = 196

    def __post_init__(self):
        if not 1 <= self.peak_day <= DAYS_PER_YEAR:
            raise ValueError(f"peak_day must be in 1..{DAYS_PER_YEAR}")


def load_weather(text: str) -> WeatherSeries:
    """Parse a weather CSV with header day,max_temp_c,sunshine_h."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "day,max_temp_c,sunshine_h":
        raise OutOfRangeValueError("weather CSV must start with header day,max_temp_c,sunshine_h")
    by_day: dict[int, DayWeather] = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 3:
            raise OutOfRangeValueError(f"bad weather row: {ln!r}")
        try:
            if not (parts[0].isascii() and parts[0].isdigit()):
                raise ValueError(parts[0])
            day, temp, sun = int(parts[0]), plain_number(parts[1]), plain_number(parts[2])
        except ValueError:
            raise OutOfRangeValueError(f"non-numeric weather row: {ln!r}")
        if day in by_day:
            raise DuplicateDayError(f"day {day} appears twice")
        if not (1 <= day <= DAYS_PER_YEAR):
            raise OutOfRangeValueError(f"day {day} outside 1..{DAYS_PER_YEAR}")
        if not (0.0 <= sun <= 24.0):
            raise OutOfRangeValueError(f"sunshine {sun} outside 0..24 on day {day}")
        if not math.isfinite(temp):
            raise OutOfRangeValueError(f"non-finite temperature on day {day}")
        by_day[day] = DayWeather(day=day, max_temp=temp, sunshine_hours=sun)
    for day in range(1, DAYS_PER_YEAR + 1):
        if day not in by_day:
            raise MissingDayError(f"day {day} missing")
    return WeatherSeries([by_day[d] for d in range(1, DAYS_PER_YEAR + 1)])


def synth_weather(seed: int, profile: ClimateProfile = ClimateProfile()) -> WeatherSeries:
    """Deterministic synthetic year: seasonal sinusoid plus bounded noise."""
    rng = generator(seed, "synth-weather")
    temp_noise = rng.normal(0.0, 1.0, DAYS_PER_YEAR)
    sun_noise = rng.normal(0.0, 1.0, DAYS_PER_YEAR)
    days = []
    for d in range(1, DAYS_PER_YEAR + 1):
        phase = math.cos(2.0 * math.pi * (d - profile.peak_day) / DAYS_PER_YEAR)
        temp = profile.temp_mean_c + profile.temp_amplitude_c * phase
        sun = profile.sunshine_mean_h + profile.sunshine_amplitude_h * phase
        temp += profile.temp_noise_c * temp_noise[d - 1]
        sun += profile.sunshine_noise_h * sun_noise[d - 1]
        days.append(
            DayWeather(day=d, max_temp=float(temp), sunshine_hours=float(min(24.0, max(0.0, sun))))
        )
    return WeatherSeries(days)


def control_effect(ctrl: EnvControl | None, day: int) -> tuple[float, float]:
    """(temperature uplift, extra light hours) that ``ctrl`` applies on ``day``."""
    if ctrl is None or not ctrl.active_on(day):
        return 0.0, 0.0
    return ctrl.temp_uplift, ctrl.extra_light_hours


def foraging_hours(dw: DayWeather, ctrl: EnvControl | None, cap: float) -> float:
    """Hours available for foraging on one day.

    The 15 C threshold is inclusive: an effective max temperature of exactly
    15.0 C allows foraging.
    """
    if not (0.0 < cap <= 24.0):
        raise ValueError(f"cap must be in (0, 24], got {cap}")
    uplift, extra = control_effect(ctrl, dw.day)
    if dw.max_temp + uplift < FORAGING_MIN_TEMP_C:
        return 0.0
    return min(dw.sunshine_hours + extra, cap)
