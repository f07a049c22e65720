"""Scenario files: line-oriented ``key = value`` under ``[section]`` headers.

The format is deliberately tiny so scenario diffs stay readable. Unknown
sections or keys are errors; relative paths resolve against the config
file's directory. See data/desk.conf for a complete example.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .control import CoverageLabel, PlacementPolicy, ThresholdClassifier
from .errors import ConfigError, MapNotFoundError, OutOfRangeValueError, WeatherNotFoundError
from .foraging import ColonyParams
from .landscape import PatchParams
from .scouting import ScoutParams
from .supervisor import ControlBounds, LoopSettings, UserConfig
from .weather import ClimateProfile, WeatherSeries, load_weather, synth_weather

_SECTIONS = {
    "scenario": {"map", "seed", "out", "classifier"},
    "weather": {
        "source", "file", "temp_mean_c", "temp_amplitude_c", "temp_noise_c",
        "sunshine_mean_h", "sunshine_amplitude_h", "sunshine_noise_h", "peak_day",
    },
    "landscape": {
        "kappa", "nectar_per_m2", "pollen_per_m2", "artificial_detect",
        "artificial_nectar_fraction",
    },
    "scouting": {
        "n_scouts", "steps_per_hour", "step_length", "turn_sigma", "max_range_m",
        "detection_radius", "dwell_steps", "bias_sigma",
    },
    "foraging": {
        "initial_workers", "forager_fraction", "trips_per_forager_hour",
        "patches_per_trip", "season_start", "season_end", "reference_distance_m",
        "scout_cadence_days", "base_cap_h", "fi_cap_h",
    },
    "control": {
        "low_cut", "high_cut", "region_rows", "region_cols",
        "waypoint_fraction", "search_radius",
    },
    "supervisor": {
        "required_label", "max_artificial_patches", "max_iterations",
        "loss_tolerance", "w1", "w2", "max_temp_uplift", "max_extra_light_h",
        "control_grid_steps", "refit_each_iteration",
    },
}


@dataclass(frozen=True)
class Scenario:
    map_path: Path
    weather_source: str  # "synth" or "file"
    weather_file: Path | None
    climate: ClimateProfile
    colony: ColonyParams
    scout: ScoutParams
    patch_params: PatchParams
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
        values[section][key] = value.strip()
    return values


def _get(values, section, key, default, cast):
    raw = values.get(section, {}).get(key)
    if raw is None:
        return default
    try:
        if cast is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return cast(raw)
    except ValueError:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r}")


def load_scenario(
    path, seed_override: int | None = None, out_override=None
) -> Scenario:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    values = parse_config(path.read_text(encoding="utf-8"))
    base = path.parent

    g = _get
    map_rel = g(values, "scenario", "map", None, str)
    if map_rel is None:
        raise ConfigError("scenario.map is required")
    map_path = (base / map_rel).resolve()
    if not map_path.is_file():
        raise MapNotFoundError(f"map file not found: {map_path}")

    weather_source = g(values, "weather", "source", "synth", str)
    if weather_source not in ("synth", "file"):
        raise ConfigError(f"weather.source must be synth or file, got {weather_source!r}")
    weather_file = None
    if weather_source == "file":
        rel = g(values, "weather", "file", None, str)
        if rel is None:
            raise ConfigError("weather.file is required when weather.source = file")
        weather_file = (base / rel).resolve()
        if not weather_file.is_file():
            raise WeatherNotFoundError(f"weather file not found: {weather_file}")

    try:
        return _build_scenario(values, map_path, weather_source, weather_file,
                               seed_override, out_override)
    except ValueError as err:
        # dataclass validators reject out-of-range values
        raise ConfigError(str(err))


def _build_scenario(values, map_path, weather_source, weather_file,
                    seed_override, out_override) -> Scenario:
    g = _get
    climate = ClimateProfile(
        temp_mean_c=g(values, "weather", "temp_mean_c", 11.0, float),
        temp_amplitude_c=g(values, "weather", "temp_amplitude_c", 8.0, float),
        temp_noise_c=g(values, "weather", "temp_noise_c", 2.5, float),
        sunshine_mean_h=g(values, "weather", "sunshine_mean_h", 8.0, float),
        sunshine_amplitude_h=g(values, "weather", "sunshine_amplitude_h", 5.0, float),
        sunshine_noise_h=g(values, "weather", "sunshine_noise_h", 1.5, float),
        peak_day=g(values, "weather", "peak_day", 196, int),
    )
    patch_params = PatchParams(
        kappa=g(values, "landscape", "kappa", 0.05, float),
        nectar_per_m2=g(values, "landscape", "nectar_per_m2", 0.002, float),
        pollen_per_m2=g(values, "landscape", "pollen_per_m2", 0.1, float),
        artificial_detect=g(values, "landscape", "artificial_detect", 0.95, float),
        artificial_nectar_fraction=g(
            values, "landscape", "artificial_nectar_fraction", 0.1, float
        ),
    )
    scout = ScoutParams(
        n_scouts=g(values, "scouting", "n_scouts", 150, int),
        steps_per_hour=g(values, "scouting", "steps_per_hour", 24, int),
        step_length=g(values, "scouting", "step_length", 0.8, float),
        turn_sigma=g(values, "scouting", "turn_sigma", 1.6, float),
        max_range=g(values, "scouting", "max_range_m", 6000.0, float),
        detection_radius=g(values, "scouting", "detection_radius", 1.8, float),
        dwell_steps=g(values, "scouting", "dwell_steps", 10, int),
        bias_sigma=g(values, "scouting", "bias_sigma", 0.3, float),
    )
    colony = ColonyParams(
        initial_workers=g(values, "foraging", "initial_workers", 10000, int),
        trips_per_forager_hour=g(values, "foraging", "trips_per_forager_hour", 0.1, float),
        patches_per_trip=g(values, "foraging", "patches_per_trip", 1, int),
        forager_fraction=g(values, "foraging", "forager_fraction", 0.25, float),
        season=(
            g(values, "foraging", "season_start", 91, int),
            g(values, "foraging", "season_end", 243, int),
        ),
        reference_distance_m=g(values, "foraging", "reference_distance_m", 1000.0, float),
    )
    thresholds = ThresholdClassifier(
        low_cut=g(values, "control", "low_cut", 0.2, float),
        high_cut=g(values, "control", "high_cut", 0.8, float),
    )
    required_name = g(values, "supervisor", "required_label", "normal", str).upper()
    if required_name not in CoverageLabel.__members__:
        raise ConfigError(f"required_label must be low, normal or high, got {required_name!r}")
    user_cfg = UserConfig(
        required_label=CoverageLabel[required_name],
        max_artificial_patches=g(values, "supervisor", "max_artificial_patches", 30, int),
        max_iterations=g(values, "supervisor", "max_iterations", 10, int),
        loss_tolerance=g(values, "supervisor", "loss_tolerance", 0.0, float),
        w1=g(values, "supervisor", "w1", 0.5, float),
        w2=g(values, "supervisor", "w2", 0.5, float),
    )
    settings = LoopSettings(
        patch_params=patch_params,
        scout_cadence_days=g(values, "foraging", "scout_cadence_days", 7, int),
        base_cap_h=g(values, "foraging", "base_cap_h", 9.0, float),
        fi_cap_h=g(values, "foraging", "fi_cap_h", 16.0, float),
        region_rows=g(values, "control", "region_rows", 8, int),
        region_cols=g(values, "control", "region_cols", 8, int),
        placement=PlacementPolicy(
            waypoint_fraction=g(values, "control", "waypoint_fraction", 0.7, float),
            search_radius=g(values, "control", "search_radius", 8.0, float),
        ),
        bounds=ControlBounds(
            max_temp_uplift=g(values, "supervisor", "max_temp_uplift", 3.0, float),
            max_extra_light_h=g(values, "supervisor", "max_extra_light_h", 5.0, float),
        ),
        control_grid_steps=g(values, "supervisor", "control_grid_steps", 7, int),
        refit_monitor_each_iteration=g(
            values, "supervisor", "refit_each_iteration", False, bool
        ),
    )
    classifier_kind = g(values, "scenario", "classifier", "threshold", str)
    if classifier_kind not in ("threshold", "softmax"):
        raise ConfigError(f"classifier must be threshold or softmax, got {classifier_kind!r}")

    seed = g(values, "scenario", "seed", 42, int)
    if seed_override is not None:
        seed = seed_override
    if not 0 <= seed < 1 << 64:
        raise OutOfRangeValueError(f"seed must be in [0, 2**64), got {seed}")
    # input paths resolve against the config; the output directory resolves
    # against the invocation directory so bundled configs stay read-only
    out = g(values, "scenario", "out", "runs/out", str)
    out_dir = Path(out_override) if out_override is not None else Path(out)

    return Scenario(
        map_path=map_path,
        weather_source=weather_source,
        weather_file=weather_file,
        climate=climate,
        colony=colony,
        scout=scout,
        patch_params=patch_params,
        classifier_kind=classifier_kind,
        thresholds=thresholds,
        user_cfg=user_cfg,
        settings=settings,
        seed=seed,
        out_dir=out_dir,
    )


def weather_for(scenario: Scenario) -> WeatherSeries:
    if scenario.weather_source == "file":
        return load_weather(scenario.weather_file.read_text(encoding="utf-8"))
    return synth_weather(scenario.seed, scenario.climate)
