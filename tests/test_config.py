import dataclasses
import math
from collections import Counter
from pathlib import Path

import pytest

from beeloop.config import _SECTIONS, load_scenario
from beeloop.control import CoverageLabel
from beeloop.errors import ConfigError
from beeloop.foraging import ColonyParams
from beeloop.landscape import PatchParams
from beeloop.scouting import ScoutParams
from beeloop.supervisor import ControlBounds, UserConfig
from beeloop.weather import EnvControl

# (section, key) -> (value, ...) or a group of keys that only validate together,
# and the Scenario leaves the setting must change, with their new values.
WIRING = {
    (("scenario", "map"),): (["other.map"], {"map_path": "other.map"}),
    (("scenario", "seed"),): (["5"], {"seed": 5}),
    (("scenario", "out"),): (["elsewhere"], {"out_dir": Path("elsewhere")}),
    (("scenario", "classifier"),): (["softmax"], {"classifier_kind": "softmax"}),
    (("weather", "source"), ("weather", "file")): (
        ["file", "weather.csv"],
        {"weather_source": "file", "weather_file": "weather.csv"},
    ),
    (("weather", "temp_mean_c"),): (["12.5"], {"climate.temp_mean_c": 12.5}),
    (("weather", "temp_amplitude_c"),): (["7"], {"climate.temp_amplitude_c": 7.0}),
    (("weather", "temp_noise_c"),): (["2"], {"climate.temp_noise_c": 2.0}),
    (("weather", "sunshine_mean_h"),): (["7.5"], {"climate.sunshine_mean_h": 7.5}),
    (("weather", "sunshine_amplitude_h"),): (["4"], {"climate.sunshine_amplitude_h": 4.0}),
    (("weather", "sunshine_noise_h"),): (["1"], {"climate.sunshine_noise_h": 1.0}),
    (("weather", "peak_day"),): (["190"], {"climate.peak_day": 190}),
    (("scouting", "n_scouts"),): (["20"], {"scout.n_scouts": 20}),
    (("scouting", "steps_per_hour"),): (["12"], {"scout.steps_per_hour": 12}),
    (("scouting", "step_length"),): (["0.5"], {"scout.step_length": 0.5}),
    (("scouting", "turn_sigma"),): (["1"], {"scout.turn_sigma": 1.0}),
    (("scouting", "max_range_m"),): (["5000"], {"scout.max_range": 5000.0}),
    (("scouting", "detection_radius"),): (["2.5"], {"scout.detection_radius": 2.5}),
    (("scouting", "dwell_steps"),): (["5"], {"scout.dwell_steps": 5}),
    (("scouting", "bias_sigma"),): (["0.2"], {"scout.bias_sigma": 0.2}),
    (("foraging", "initial_workers"),): (["5000"], {"colony.initial_workers": 5000}),
    (("foraging", "forager_fraction"),): (["0.3"], {"colony.forager_fraction": 0.3}),
    (("foraging", "trips_per_forager_hour"),): (
        ["0.2"], {"colony.trips_per_forager_hour": 0.2}
    ),
    (("foraging", "patches_per_trip"),): (["2"], {"colony.patches_per_trip": 2}),
    (("foraging", "season_start"),): (["100"], {"colony.season[0]": 100}),
    (("foraging", "season_end"),): (["200"], {"colony.season[1]": 200}),
    (("foraging", "scout_cadence_days"),): (["3"], {"settings.scout_cadence_days": 3}),
    (("foraging", "base_cap_h"),): (["8"], {"settings.base_cap_h": 8.0}),
    (("foraging", "fi_cap_h"),): (["12"], {"settings.fi_cap_h": 12.0}),
    (("control", "low_cut"),): (["0.1"], {"thresholds.low_cut": 0.1}),
    (("control", "high_cut"),): (["0.9"], {"thresholds.high_cut": 0.9}),
    (("control", "region_rows"),): (["4"], {"settings.region_rows": 4}),
    (("control", "region_cols"),): (["4"], {"settings.region_cols": 4}),
    (("control", "waypoint_fraction"),): (
        ["0.5"], {"settings.placement.waypoint_fraction": 0.5}
    ),
    (("control", "search_radius"),): (["6"], {"settings.placement.search_radius": 6.0}),
    (("supervisor", "required_label"),): (
        ["high"], {"user_cfg.required_label": CoverageLabel.HIGH}
    ),
    (("supervisor", "max_artificial_patches"),): (
        ["12"], {"user_cfg.max_artificial_patches": 12}
    ),
    (("supervisor", "max_iterations"),): (["4"], {"user_cfg.max_iterations": 4}),
    (("supervisor", "loss_tolerance"),): (["1"], {"user_cfg.loss_tolerance": 1.0}),
    (("supervisor", "w1"), ("supervisor", "w2")): (
        ["0.25", "0.75"], {"user_cfg.w1": 0.25, "user_cfg.w2": 0.75}
    ),
    (("supervisor", "max_temp_uplift"),): (["2"], {"settings.bounds.max_temp_uplift": 2.0}),
    (("supervisor", "max_extra_light_h"),): (
        ["4"], {"settings.bounds.max_extra_light_h": 4.0}
    ),
    (("supervisor", "control_grid_steps"),): (["5"], {"settings.control_grid_steps": 5}),
    (("supervisor", "refit_each_iteration"),): (
        ["true"], {"settings.refit_monitor_each_iteration": True}
    ),
}
for _name, _raw, _value in [
    ("kappa", "0.07", 0.07),
    ("nectar_per_m2", "0.003", 0.003),
    ("pollen_per_m2", "0.2", 0.2),
    ("artificial_detect", "0.9", 0.9),
    ("artificial_nectar_fraction", "0.2", 0.2),
]:
    WIRING[(("landscape", _name),)] = ([_raw], {f"settings.patch_params.{_name}": _value})


def leaves(obj, path=""):
    """Every scalar reachable from ``obj`` through dataclass fields and tuples."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from leaves(getattr(obj, f.name), f"{path}.{f.name}" if path else f.name)
    elif isinstance(obj, tuple):
        for i, item in enumerate(obj):
            yield from leaves(item, f"{path}[{i}]")
    else:
        yield path, obj


def load(tmp_path, settings) -> dict:
    (tmp_path / "field.map").write_text("H\n", encoding="utf-8")
    (tmp_path / "other.map").write_text("H\n", encoding="utf-8")
    (tmp_path / "weather.csv").write_text("", encoding="utf-8")
    sections = {"scenario": {"map": "field.map"}}
    for (section, key), value in settings:
        sections.setdefault(section, {})[key] = value
    text = "".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for section, keys in sections.items()
    )
    path = tmp_path / "scenario.conf"
    path.write_text(text, encoding="utf-8")
    return dict(leaves(load_scenario(path)))


def test_wiring_table_covers_every_key():
    covered = {key for keys in WIRING for key in keys}
    assert covered == {(s, k) for s, keys in _SECTIONS.items() for k in keys}


def test_every_scenario_leaf_is_set_by_exactly_one_key(tmp_path):
    setters = Counter(path for _, changed in WIRING.values() for path in changed)
    default = load(tmp_path, [])
    assert {path: setters[path] for path in default if setters[path] != 1} == {}


@pytest.mark.parametrize("keys", list(WIRING), ids=lambda keys: ",".join(k for _, k in keys))
def test_each_key_changes_only_its_own_field(tmp_path, keys):
    raw, expected = WIRING[keys]
    default = load(tmp_path, [])
    changed = load(tmp_path, list(zip(keys, raw)))
    diff = {path: value for path, value in changed.items() if default[path] != value}
    want = {
        path: (tmp_path / value).resolve() if path in ("map_path", "weather_file") else value
        for path, value in expected.items()
    }
    assert diff == want


def test_two_headers_of_one_section_merge(tmp_path):
    (tmp_path / "field.map").write_text("H\n", encoding="utf-8")
    path = tmp_path / "scenario.conf"
    path.write_text(
        "[scenario]\nmap = field.map\n[scouting]\nn_scouts = 20\n"
        "[foraging]\nbase_cap_h = 8\n[scouting]\nstep_length = 0.5\n",
        encoding="utf-8",
    )
    scenario = load_scenario(path)
    assert (scenario.scout.n_scouts, scenario.scout.step_length) == (20, 0.5)
    assert scenario.settings.base_cap_h == 8.0


@pytest.mark.parametrize(
    "text",
    ["[scouting]\nn_scouts = 20\nn_scouts = 20\n",
     "[scouting]\nn_scouts = 20\n[foraging]\nbase_cap_h = 8\n[scouting]\nn_scouts = 30\n"],
    ids=["same_header", "second_header"],
)
def test_repeated_key_rejected(tmp_path, text):
    (tmp_path / "field.map").write_text("H\n", encoding="utf-8")
    path = tmp_path / "scenario.conf"
    path.write_text("[scenario]\nmap = field.map\n" + text, encoding="utf-8")
    with pytest.raises(ConfigError, match=r"scouting\.n_scouts set again at line \d+"):
        load_scenario(path)


@pytest.mark.parametrize("cls, name", [
    (ControlBounds, "max_temp_uplift"), (ControlBounds, "max_extra_light_h"),
    (EnvControl, "temp_uplift"), (EnvControl, "extra_light_hours"),
    (PatchParams, "kappa"), (PatchParams, "nectar_per_m2"), (PatchParams, "pollen_per_m2"),
    (PatchParams, "artificial_nectar_fraction"),
    (ScoutParams, "max_range"), (ScoutParams, "bias_sigma"),
    (ColonyParams, "trips_per_forager_hour"),
    (UserConfig, "w1"), (UserConfig, "w2"), (UserConfig, "loss_tolerance"),
])
def test_code_built_settings_reject_nan(cls, name):
    """Settings built in code reject NaN as config files do."""
    with pytest.raises(ValueError):
        cls(**{name: math.nan})
