"""Scenario files: line-oriented ``key = value`` under ``[section]`` headers.

The format is deliberately tiny so scenario diffs stay readable. Unknown
sections or keys are errors, and so is a key set twice in one section, even
under two headers; relative paths resolve against the config file's
directory. See data/desk.conf for a complete example.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .control import CoverageLabel, PlacementPolicy, ThresholdClassifier
from .errors import ConfigError, MapNotFoundError, OutOfRangeValueError, WeatherNotFoundError
from .errors import read_utf8
from .foraging import ColonyParams
from .landscape import PatchParams
from .scouting import ScoutParams
from .supervisor import ControlBounds, LoopSettings, UserConfig
from .weather import ClimateProfile, WeatherSeries, load_weather, synth_weather


def _float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(raw)


def _label(raw: str) -> CoverageLabel:
    if raw.upper() not in CoverageLabel.__members__:
        raise ValueError(raw)
    return CoverageLabel[raw.upper()]


# section -> key -> type. A key the file leaves out takes the default of the
# dataclass field it sets; the keys of a section go to the fields of the same
# name, after the renames below.
_SECTIONS = {
    "scenario": {"map": str, "seed": int, "out": str, "classifier": str},
    "weather": {
        "source": str, "file": str, "temp_mean_c": _float, "temp_amplitude_c": _float,
        "temp_noise_c": _float, "sunshine_mean_h": _float, "sunshine_amplitude_h": _float,
        "sunshine_noise_h": _float, "peak_day": int,
    },
    "landscape": {
        "kappa": _float, "nectar_per_m2": _float, "pollen_per_m2": _float,
        "artificial_detect": _float, "artificial_nectar_fraction": _float,
    },
    "scouting": {
        "n_scouts": int, "steps_per_hour": int, "step_length": _float, "turn_sigma": _float,
        "max_range_m": _float, "detection_radius": _float, "dwell_steps": int,
        "bias_sigma": _float,
    },
    "foraging": {
        "initial_workers": int, "forager_fraction": _float,
        "trips_per_forager_hour": _float, "patches_per_trip": int, "season_start": int,
        "season_end": int, "scout_cadence_days": int,
        "base_cap_h": _float, "fi_cap_h": _float,
    },
    "control": {
        "low_cut": _float, "high_cut": _float, "region_rows": int, "region_cols": int,
        "waypoint_fraction": _float, "search_radius": _float,
    },
    "supervisor": {
        "required_label": _label, "max_artificial_patches": int, "max_iterations": int,
        "loss_tolerance": _float, "w1": _float, "w2": _float, "max_temp_uplift": _float,
        "max_extra_light_h": _float, "control_grid_steps": int, "refit_each_iteration": _bool,
    },
}
_RENAMES = {"max_range_m": "max_range", "refit_each_iteration": "refit_monitor_each_iteration"}


@dataclass(frozen=True)
class Scenario:
    map_path: Path
    weather_source: str  # "synth" or "file"
    weather_file: Path | None
    climate: ClimateProfile
    colony: ColonyParams
    scout: ScoutParams
    classifier_kind: str  # "threshold" or "softmax"
    thresholds: ThresholdClassifier
    user_cfg: UserConfig
    settings: LoopSettings
    seed: int
    out_dir: Path


def parse_config(text: str) -> dict[str, dict[str, str]]:
    values: dict[str, dict[str, str]] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}] at line {lineno}")
            values.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value at line {lineno}: {line!r}")
        if section is None:
            raise ConfigError(f"key outside any section at line {lineno}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SECTIONS[section]:
            raise ConfigError(f"unknown key {key!r} in [{section}] at line {lineno}")
        if key in values[section]:
            raise ConfigError(f"{section}.{key} set again at line {lineno}")
        values[section][key] = value.strip()
    return values


def _typed(values: dict[str, dict[str, str]]) -> dict[str, dict]:
    """Cast every value the file sets and rename keys to their field names."""
    typed: dict[str, dict] = {}
    for section, keys in values.items():
        typed[section] = {}
        for key, raw in keys.items():
            try:
                typed[section][_RENAMES.get(key, key)] = _SECTIONS[section][key](raw)
            except ValueError:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r}")
    return typed


def _build(values: dict[str, dict], cls, *sections: str, **given):
    """``cls`` from the values ``sections`` set for its fields and ``given``;
    every other field keeps its default."""
    names = {f.name for f in fields(cls)}
    return cls(**{k: v for s in sections for k, v in values.get(s, {}).items() if k in names},
               **given)


def load_scenario(
    path, seed_override: int | None = None, out_override=None
) -> Scenario:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    values = parse_config(read_utf8(path, ConfigError))
    base = path.parent

    map_rel = values.get("scenario", {}).get("map")
    if map_rel is None:
        raise ConfigError("scenario.map is required")
    map_path = (base / map_rel).resolve()
    if not map_path.is_file():
        raise MapNotFoundError(f"map file not found: {map_path}")

    weather_source = values.get("weather", {}).get("source", "synth")
    if weather_source not in ("synth", "file"):
        raise ConfigError(f"weather.source must be synth or file, got {weather_source!r}")
    weather_file = None
    if weather_source == "file":
        rel = values["weather"].get("file")
        if rel is None:
            raise ConfigError("weather.file is required when weather.source = file")
        weather_file = (base / rel).resolve()
        if not weather_file.is_file():
            raise WeatherNotFoundError(f"weather file not found: {weather_file}")

    try:
        return _build_scenario(_typed(values), map_path, weather_source, weather_file,
                               seed_override, out_override)
    except ValueError as err:
        # dataclass validators reject out-of-range values
        raise ConfigError(str(err))


def _build_scenario(values, map_path, weather_source, weather_file,
                    seed_override, out_override) -> Scenario:
    scenario = values.get("scenario", {})
    foraging = values.get("foraging", {})
    start, end = ColonyParams.season
    climate = _build(values, ClimateProfile, "weather")
    scout = _build(values, ScoutParams, "scouting")
    colony = _build(
        values, ColonyParams, "foraging",
        season=(foraging.get("season_start", start), foraging.get("season_end", end)),
    )
    thresholds = _build(values, ThresholdClassifier, "control")
    user_cfg = _build(values, UserConfig, "supervisor")
    settings = _build(
        values, LoopSettings, "foraging", "control", "supervisor",
        patch_params=_build(values, PatchParams, "landscape"),
        placement=_build(values, PlacementPolicy, "control"),
        bounds=_build(values, ControlBounds, "supervisor"),
    )
    classifier_kind = scenario.get("classifier", "threshold")
    if classifier_kind not in ("threshold", "softmax"):
        raise ConfigError(f"classifier must be threshold or softmax, got {classifier_kind!r}")

    seed = scenario.get("seed", 42) if seed_override is None else seed_override
    if not 0 <= seed < 1 << 64:
        raise OutOfRangeValueError(f"seed must be in [0, 2**64), got {seed}")
    # input paths resolve against the config; the output directory resolves
    # against the invocation directory so bundled configs stay read-only
    out_dir = Path(out_override if out_override is not None else scenario.get("out", "runs/out"))
    # A file on the way would only stop the run at its first write.
    nearest = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not nearest.is_dir():
        raise ConfigError(f"output directory {out_dir} lies under the file {nearest}")

    return Scenario(
        map_path=map_path,
        weather_source=weather_source,
        weather_file=weather_file,
        climate=climate,
        colony=colony,
        scout=scout,
        classifier_kind=classifier_kind,
        thresholds=thresholds,
        user_cfg=user_cfg,
        settings=settings,
        seed=seed,
        out_dir=out_dir,
    )


def weather_for(scenario: Scenario) -> WeatherSeries:
    if scenario.weather_source == "file":
        return load_weather(read_utf8(scenario.weather_file, OutOfRangeValueError))
    return synth_weather(scenario.seed, scenario.climate)
