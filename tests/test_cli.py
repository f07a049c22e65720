import shutil
from pathlib import Path

import pytest

from beeloop import cli, supervisor
from beeloop import config as config_mod
from beeloop.cli import default_config_path, main


def write_config(tmp_path: Path, **overrides) -> Path:
    """Small fast scenario derived from the bundled desk landscape."""
    shutil.copy(default_config_path().parent / "field_desk.map", tmp_path / "field.map")
    values = {
        "map": "field.map",
        "seed": 7,
        "n_scouts": 40,
        "season_start": 130,
        "season_end": 170,
        "scout_cadence_days": 10,
        "max_iterations": 2,
        "max_artificial_patches": 6,
        "max_temp_uplift": 3.0,
        "max_extra_light_h": 5.0,
        "weather_block": "source = synth",
    }
    values.update(overrides)
    text = f"""
[scenario]
map = {values['map']}
seed = {values['seed']}
out = out

[weather]
{values['weather_block']}

[scouting]
n_scouts = {values['n_scouts']}

[foraging]
season_start = {values['season_start']}
season_end = {values['season_end']}
scout_cadence_days = {values['scout_cadence_days']}

[supervisor]
max_iterations = {values['max_iterations']}
max_artificial_patches = {values['max_artificial_patches']}
max_temp_uplift = {values['max_temp_uplift']}
max_extra_light_h = {values['max_extra_light_h']}
"""
    path = tmp_path / "scenario.conf"
    path.write_text(text, encoding="utf-8")
    return path


def read_tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_baseline_writes_four_artifacts(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["baseline", "--config", str(config), "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"season.csv", "totals.json", "foodflow.csv", "coverage.csv"}


def test_baseline_missing_map(tmp_path, capsys):
    config = write_config(tmp_path)
    (tmp_path / "field.map").unlink()
    code = main(["baseline", "--config", str(config), "--out", str(tmp_path / "x")])
    assert code != 0
    assert capsys.readouterr().err.strip() == "error: MapNotFound"


def test_baseline_byte_identical_across_runs(tmp_path):
    config = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["baseline", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["baseline", "--config", str(config), "--out", str(out_b)]) == 0
    assert read_tree(out_a) == read_tree(out_b)


def test_seed_override_changes_outputs(tmp_path):
    config = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["baseline", "--config", str(config), "--out", str(out_a)])
    main(["baseline", "--config", str(config), "--seed", "8", "--out", str(out_b)])
    assert read_tree(out_a) != read_tree(out_b)


def test_fi_writes_reports_with_pii(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["fi", "--config", str(config), "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert {
        "season_baseline.csv", "totals_baseline.json", "coverage_baseline.csv",
        "season_fi.csv", "totals_fi.json", "coverage_fi.csv", "foodflow_fi.csv",
        "fi_plan.csv", "placed_patches.csv", "loop_trace.csv", "comparison.csv",
        "region_labels.csv",
    } <= names
    comparison = (out / "comparison.csv").read_text()
    assert any(line.startswith("pii,") for line in comparison.splitlines())


def test_fi_noop_reports_zero_pii(tmp_path):
    config = write_config(
        tmp_path, max_artificial_patches=0, max_temp_uplift=0.0, max_extra_light_h=0.0
    )
    out = tmp_path / "run"
    assert main(["fi", "--config", str(config), "--out", str(out)]) == 0
    pii_line = next(
        line for line in (out / "comparison.csv").read_text().splitlines()
        if line.startswith("pii,")
    )
    assert pii_line.split(",")[3] == "0.0"


def desk_map_with(tmp_path, edit) -> None:
    """Rewrite the scenario's copy of the desk map cell by cell."""
    path = tmp_path / "field.map"
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    rows = [list(row) for row in rows]
    edit(rows)
    path.write_text("\n".join([header, *("".join(r) for r in rows)]) + "\n", encoding="utf-8")


def enclose_hive(rows) -> None:
    r0, c0 = next((r, row.index("H")) for r, row in enumerate(rows) if "H" in row)
    for r in range(r0 - 1, r0 + 2):
        for c in range(c0 - 1, c0 + 2):
            if (r, c) != (r0, c0):
                rows[r][c] = "#"


def remove_crop(rows) -> None:
    for row in rows:
        row[:] = ["." if sym == "Y" else sym for sym in row]


def fi_control_row(out: Path) -> list[str]:
    lines = (out / "fi_plan.csv").read_text(encoding="utf-8").splitlines()
    return next(line for line in lines if line.startswith("control,")).split(",")


@pytest.mark.parametrize("scenario", ["no_crop", "enclosed_hive", "empty_season"])
def test_fi_unidentifiable_baseline_means_no_control(tmp_path, capsys, scenario):
    """Constant daily visits or too few days cannot identify the monitor; the
    loop then plans no control instead of aborting."""
    if scenario == "empty_season":
        config = write_config(tmp_path, season_start=130, season_end=129)
    else:
        config = write_config(tmp_path)
        desk_map_with(tmp_path, remove_crop if scenario == "no_crop" else enclose_hive)
    out = tmp_path / "run"
    assert main(["fi", "--config", str(config), "--out", str(out), "--dump-paths"]) == 0
    assert capsys.readouterr().err == ""
    window = ["130", "129"] if scenario == "empty_season" else ["130", "170"]
    assert fi_control_row(out)[6:10] == ["0.0", "0.0", *window]
    assert main(["report", str(out)]) == 0


def test_train_monitor_still_rejects_constant_visits(tmp_path, capsys):
    config = write_config(tmp_path)
    desk_map_with(tmp_path, enclose_hive)
    out = tmp_path / "run"
    assert main(["baseline", "--config", str(config), "--out", str(out)]) == 0
    code = main(["train-monitor", "--config", str(config), "--out", str(out)])
    assert code != 0
    assert capsys.readouterr().err.strip() == "error: ZeroVariance"


def test_fi_corrupted_weather_surfaces_missing_day(tmp_path, capsys):
    lines = ["day,max_temp_c,sunshine_h"]
    lines += [f"{d},18.0,8.0" for d in range(1, 366) if d != 42]
    (tmp_path / "weather.csv").write_text("\n".join(lines) + "\n")
    config = write_config(tmp_path, weather_block="source = file\nfile = weather.csv")
    code = main(["fi", "--config", str(config), "--out", str(tmp_path / "x")])
    assert code != 0
    assert capsys.readouterr().err.strip() == "error: MissingDay"


def test_report_long_format(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    main(["fi", "--config", str(config), "--out", str(out)])
    assert main(["report", str(out)]) == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == "metric,scenario,day,value"
    metrics = {line.split(",")[0] for line in lines[1:]}
    assert metrics == {
        "foraging_h", "trips", "trips_per_sun_h", "total_visits",
        "detected_patches", "covered_area_frac",
    }
    scenarios = {line.split(",")[1] for line in lines[1:]}
    assert scenarios == {"baseline", "fi"}
    first = (out / "report.csv").read_bytes()
    assert main(["report", str(out)]) == 0
    assert (out / "report.csv").read_bytes() == first


def test_report_empty_dir(tmp_path, capsys):
    code = main(["report", str(tmp_path)])
    assert code != 0
    assert capsys.readouterr().err.strip() == "error: MissingArtifacts"


def test_train_monitor_prints_model(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    main(["baseline", "--config", str(config), "--out", str(out)])
    capsys.readouterr()
    code = main([
        "train-monitor", "--config", str(config), "--out", str(out),
        "--season", str(out / "season.csv"),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "coef.max_temp_c:" in printed
    assert "r_squared_train:" in printed
    assert "r_squared_test:" in printed
    assert (out / "monitor.txt").is_file()


def test_unknown_config_key_rejected(tmp_path, capsys):
    config = write_config(tmp_path)
    config.write_text(config.read_text() + "\n[scenario]\nbogus = 1\n")
    code = main(["baseline", "--config", str(config), "--out", str(tmp_path / "x")])
    assert code != 0
    assert capsys.readouterr().err.strip() == "error: ConfigError"


def test_out_of_range_value_rejected(tmp_path, capsys):
    config = write_config(tmp_path)
    config.write_text(config.read_text() + "\n[scouting]\nturn_sigma = 9\n")
    code = main(["baseline", "--config", str(config), "--out", str(tmp_path / "x")])
    assert code != 0
    assert capsys.readouterr().err.strip() == "error: ConfigError"


def test_bundled_config_matches_code_defaults():
    """The desk scenario, config fallbacks and dataclass defaults must agree."""
    from beeloop.config import load_scenario
    from beeloop.foraging import ColonyParams
    from beeloop.landscape import PatchParams
    from beeloop.scouting import ScoutParams
    from beeloop.supervisor import LoopSettings, UserConfig

    scenario = load_scenario(default_config_path())
    assert scenario.scout == ScoutParams()
    assert scenario.colony == ColonyParams()
    assert scenario.settings.patch_params == PatchParams()
    assert scenario.user_cfg == UserConfig()
    assert scenario.settings == LoopSettings()
    assert scenario.seed == 42


def test_dump_paths_flag(tmp_path):
    config = write_config(tmp_path, n_scouts=10)
    out = tmp_path / "run"
    assert main(["baseline", "--config", str(config), "--out", str(out),
                 "--dump-paths"]) == 0
    paths = (out / "paths.csv").read_text().splitlines()
    assert paths[0] == "scout_id,step,x,y"
    assert len(paths) > 1


def test_dump_paths_is_the_baseline_first_active_refresh(tmp_path):
    """``fi --dump-paths`` writes the same walk as ``baseline --dump-paths``."""
    config = write_config(tmp_path, n_scouts=10)
    base, fi = tmp_path / "base", tmp_path / "fi"
    assert main(["baseline", "--config", str(config), "--out", str(base),
                 "--dump-paths"]) == 0
    assert main(["fi", "--config", str(config), "--out", str(fi), "--dump-paths"]) == 0
    assert (fi / "paths.csv").read_bytes() == (base / "paths.csv").read_bytes()
    assert len((base / "paths.csv").read_text().splitlines()) > 1


def test_dump_paths_header_only_without_active_refresh(tmp_path):
    config = write_config(tmp_path, n_scouts=10,
                          weather_block="source = synth\ntemp_mean_c = -30")
    out = tmp_path / "run"
    assert main(["baseline", "--config", str(config), "--out", str(out),
                 "--dump-paths"]) == 0
    assert (out / "paths.csv").read_text() == "scout_id,step,x,y\n"


def test_seed_outside_u64_rejected(tmp_path, capsys):
    config = write_config(tmp_path, n_scouts=10)
    for seed in (-5, 2**64):
        code = main(["baseline", "--config", str(config), "--seed", str(seed),
                     "--out", str(tmp_path / "x")])
        assert code != 0
        assert capsys.readouterr().err.splitlines() == ["error: OutOfRangeValue"]
    config = write_config(tmp_path, n_scouts=10, seed=-5)
    assert main(["baseline", "--config", str(config), "--out", str(tmp_path / "x")]) != 0
    assert capsys.readouterr().err.splitlines() == ["error: OutOfRangeValue"]
    assert not (tmp_path / "x").exists()


def test_largest_u64_seed_runs(tmp_path):
    config = write_config(tmp_path, n_scouts=10)
    out = tmp_path / "run"
    assert main(["baseline", "--config", str(config), "--seed", str(2**64 - 1),
                 "--out", str(out)]) == 0
    assert (out / "season.csv").is_file()


def assert_one_error(capsys, code: str, out: Path) -> None:
    assert capsys.readouterr().err.splitlines() == [f"error: {code}"]
    assert not out.exists()


@pytest.mark.parametrize(
    "extra",
    [
        "[foraging]\nbase_cap_h = 30",
        "[foraging]\nfi_cap_h = 0",
        "[foraging]\nscout_cadence_days = 0",
        "[supervisor]\ncontrol_grid_steps = 0",
        "[scouting]\nstep_length = nan",
        "[supervisor]\nw1 = nan\nw2 = nan",
        "[scouting]\nstep_length = inf",
        "[scouting]\ndetection_radius = inf",
        "[scouting]\nmax_range_m = inf",
        "[scouting]\nbias_sigma = 1e308",
        "[scouting]\ndwell_steps = 99999999999999999999",
        "[landscape]\nkappa = -1",
        "[landscape]\nnectar_per_m2 = inf",
        "[landscape]\nnectar_per_m2 = -1",
        "[landscape]\nartificial_nectar_fraction = -1",
        "[landscape]\nartificial_detect = 1.5",
        "[foraging]\nreference_distance_m = 1000",
        "[foraging]\ntrips_per_forager_hour = inf",
        "[foraging]\ntrips_per_forager_hour = 1e300",
        "[control]\nsearch_radius = inf",
        "[control]\nsearch_radius = -1",
        "[control]\nwaypoint_fraction = 5",
        "[supervisor]\nloss_tolerance = inf",
        {"max_temp_uplift": "inf"},
        {"max_temp_uplift": -1},
        {"max_extra_light_h": -1},
        {"max_temp_uplift": 1e308},
        {"max_extra_light_h": 24.5},
    ],
    ids=["base_cap_30", "fi_cap_0", "cadence_0", "grid_steps_0", "nan_step", "nan_weights",
         "inf_step", "inf_radius", "inf_range", "huge_bias_sigma", "huge_dwell",
         "negative_kappa", "inf_nectar",
         "negative_nectar", "negative_nectar_fraction", "detect_above_1",
         "retired_reference_distance", "inf_trip_rate", "huge_trip_rate", "inf_search_radius",
         "negative_search_radius",
         "waypoint_above_1", "inf_tolerance", "inf_uplift", "negative_uplift",
         "negative_light", "huge_uplift", "light_above_24"],
)
def test_bad_scenario_value_fails_at_load(tmp_path, capsys, extra):
    """``extra`` is a config fragment to append, or ``write_config`` overrides
    for the keys it already writes, since appending one of those repeats it."""
    if isinstance(extra, dict):
        config = write_config(tmp_path, n_scouts=10, **extra)
    else:
        config = write_config(tmp_path, n_scouts=10)
        config.write_text(config.read_text() + "\n" + extra + "\n")
    out = tmp_path / "x"
    for command in ("baseline", "fi", "train-monitor"):
        assert main([command, "--config", str(config), "--out", str(out)]) != 0
        assert_one_error(capsys, "ConfigError", out)


@pytest.mark.parametrize("key", ["nectar_per_m2", "pollen_per_m2", "artificial_nectar_fraction"])
def test_patch_food_overflowing_to_inf_rejected(tmp_path, capsys, key):
    config = write_config(tmp_path, n_scouts=10)
    config.write_text(config.read_text() + f"\n[landscape]\n{key} = 1e308\n")
    out = tmp_path / "x"
    # baseline places no artificial patch
    commands = ("fi",) if key == "artificial_nectar_fraction" else ("baseline", "fi")
    for command in commands:
        assert main([command, "--config", str(config), "--out", str(out)]) != 0
        assert_one_error(capsys, "OutOfRangeValue", out)


@pytest.mark.parametrize("cell_size", ["nan", "inf"])
def test_non_finite_cell_size_rejected(tmp_path, capsys, cell_size):
    config = write_config(tmp_path, n_scouts=10)
    path = tmp_path / "field.map"
    header, rest = path.read_text(encoding="utf-8").split("\n", 1)
    assert header.startswith("# cell_size_m")
    path.write_text(f"# cell_size_m = {cell_size}\n{rest}", encoding="utf-8")
    out = tmp_path / "x"
    for command in ("baseline", "fi"):
        assert main([command, "--config", str(config), "--out", str(out)]) != 0
        assert_one_error(capsys, "UnknownSymbol", out)


@pytest.mark.parametrize("row", ["42,warm,8.0", "42,18.0,", "4.2e1,18.0,8.0"])
def test_non_numeric_weather_field_rejected(tmp_path, capsys, row):
    lines = ["day,max_temp_c,sunshine_h"]
    lines += [row if d == 42 else f"{d},18.0,8.0" for d in range(1, 366)]
    (tmp_path / "weather.csv").write_text("\n".join(lines) + "\n")
    config = write_config(tmp_path, weather_block="source = file\nfile = weather.csv")
    out = tmp_path / "x"
    for command in ("baseline", "fi"):
        assert main([command, "--config", str(config), "--out", str(out)]) != 0
        assert_one_error(capsys, "OutOfRangeValue", out)


SEASON_HEADER = (
    "day,foraging_h,trips,trips_per_sun_h,total_visits,detected_patches,covered_area_frac"
)


def write_season(path: Path, header: str, row: str) -> None:
    path.write_text(f"{header}\n{row}\n", encoding="utf-8")


@pytest.mark.parametrize(
    "header,row",
    [
        (SEASON_HEADER.replace(",covered_area_frac", ""), "130,9.0,10,1.0,10,3"),
        (SEASON_HEADER.replace("day,", "when,"), "130,9.0,10,1.0,10,3,0.5"),
        (SEASON_HEADER, "130,9.0,10,1.0"),
    ],
    ids=["no_metric", "no_day", "short_row"],
)
def test_report_bad_season_export(tmp_path, capsys, header, row):
    write_season(tmp_path / "season_baseline.csv", SEASON_HEADER, "130,9.0,10,1.0,10,3,0.5")
    write_season(tmp_path / "season_fi.csv", header, row)
    assert main(["report", str(tmp_path)]) != 0
    assert_one_error(capsys, "MissingArtifacts", tmp_path / "report.csv")


@pytest.mark.parametrize(
    "header,row",
    [
        (SEASON_HEADER.replace(",total_visits", ""), "130,9.0,10,1.0,3,0.5"),
        (SEASON_HEADER, "130,9.0,10"),
        ("", ""),
    ],
    ids=["no_visits", "short_row", "no_header"],
)
def test_train_monitor_bad_season_export(tmp_path, capsys, header, row):
    config = write_config(tmp_path, n_scouts=10)
    season = tmp_path / "season.csv"
    write_season(season, header, row)
    out = tmp_path / "x"
    code = main(["train-monitor", "--config", str(config), "--out", str(out),
                 "--season", str(season)])
    assert code != 0
    assert_one_error(capsys, "MissingArtifacts", out)


def test_baseline_season_before_day_one_rejected(tmp_path, capsys):
    config = write_config(tmp_path, n_scouts=10, season_start=0, season_end=20)
    out = tmp_path / "x"
    assert main(["baseline", "--config", str(config), "--out", str(out)]) != 0
    assert_one_error(capsys, "OutOfRangeValue", out)


def test_fi_season_past_year_end_rejected(tmp_path, capsys):
    config = write_config(tmp_path, n_scouts=10, season_start=350, season_end=400)
    out = tmp_path / "x"
    assert main(["fi", "--config", str(config), "--out", str(out)]) != 0
    assert_one_error(capsys, "OutOfRangeValue", out)


def test_train_monitor_day_outside_year_rejected(tmp_path, capsys):
    config = write_config(tmp_path, n_scouts=10)
    season = tmp_path / "season.csv"
    rows = [f"{d},9.0,10,1.0,{10 + d},3,0.5" for d in range(0, 12)]
    season.write_text("\n".join([SEASON_HEADER, *rows]) + "\n", encoding="utf-8")
    out = tmp_path / "x"
    code = main(["train-monitor", "--config", str(config), "--out", str(out),
                 "--season", str(season)])
    assert code != 0
    assert_one_error(capsys, "OutOfRangeValue", out)


@pytest.mark.parametrize("day", ["x", "4.5", ""])
def test_report_non_integer_day_rejected(tmp_path, capsys, day):
    write_season(tmp_path / "season_baseline.csv", SEASON_HEADER, "130,9.0,10,1.0,10,3,0.5")
    write_season(tmp_path / "season_fi.csv", SEASON_HEADER, f"{day},9.0,10,1.0,10,3,0.5")
    assert main(["report", str(tmp_path)]) != 0
    assert_one_error(capsys, "MissingArtifacts", tmp_path / "report.csv")


@pytest.mark.parametrize("day", ["x", "4.5", ""])
def test_train_monitor_non_integer_day_rejected(tmp_path, capsys, day):
    config = write_config(tmp_path, n_scouts=10)
    season = tmp_path / "season.csv"
    write_season(season, SEASON_HEADER, f"{day},9.0,10,1.0,10,3,0.5")
    out = tmp_path / "x"
    code = main(["train-monitor", "--config", str(config), "--out", str(out),
                 "--season", str(season)])
    assert code != 0
    assert_one_error(capsys, "MissingArtifacts", out)


@pytest.mark.parametrize(
    "extra",
    ["[scouting]\nstep_length = 1000\nstep_length = 0.8", "[scouting]\nn_scouts = 20"],
    ids=["same_header", "second_header"],
)
def test_repeated_config_key_rejected(tmp_path, capsys, extra):
    config = write_config(tmp_path, n_scouts=10)
    config.write_text(config.read_text() + "\n" + extra + "\n")
    out = tmp_path / "x"
    for command in ("baseline", "fi"):
        assert main([command, "--config", str(config), "--out", str(out)]) != 0
        assert_one_error(capsys, "ConfigError", out)


def test_zero_cadence_fails_at_load(tmp_path, capsys):
    # Set once: test_bad_scenario_value_fails_at_load[cadence_0] appends a
    # second scout_cadence_days line, which now fails as a repeated key first.
    config = write_config(tmp_path, n_scouts=10, scout_cadence_days=0)
    out = tmp_path / "x"
    for command in ("baseline", "fi", "train-monitor"):
        assert main([command, "--config", str(config), "--out", str(out)]) != 0
        assert_one_error(capsys, "ConfigError", out)


@pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under_file"])
def test_out_path_through_a_file_fails_before_simulating(tmp_path, capsys, monkeypatch, sub):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking --out")

    monkeypatch.setattr(cli, "run_season", no_simulation)
    monkeypatch.setattr(cli, "run_fi_loop", no_simulation)
    config = write_config(tmp_path, n_scouts=10)
    taken = tmp_path / "taken"
    taken.write_text("kept\n", encoding="utf-8")
    for command in ("baseline", "fi", "train-monitor"):
        assert main([command, "--config", str(config), "--out", str(taken / sub)]) != 0
        assert capsys.readouterr().err.splitlines() == ["error: ConfigError"]
        assert taken.read_text(encoding="utf-8") == "kept\n"


def test_map_not_utf8_rejected(tmp_path, capsys):
    config = write_config(tmp_path, n_scouts=10)
    path = tmp_path / "field.map"
    header, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(header + b"\n\xe9" + rest[1:])
    out = tmp_path / "x"
    for command in ("baseline", "fi"):
        assert main([command, "--config", str(config), "--out", str(out)]) != 0
        assert_one_error(capsys, "UnknownSymbol", out)


def test_config_not_utf8_rejected(tmp_path, capsys):
    config = write_config(tmp_path, n_scouts=10)
    config.write_bytes(b"# caf\xe9\n" + config.read_bytes())
    out = tmp_path / "x"
    for command in ("baseline", "fi", "train-monitor"):
        assert main([command, "--config", str(config), "--out", str(out)]) != 0
        assert_one_error(capsys, "ConfigError", out)


def test_weather_file_not_utf8_rejected(tmp_path, capsys):
    lines = ["day,max_temp_c,sunshine_h", *(f"{d},18.0,8.0" for d in range(1, 366))]
    data = "\n".join(lines).encode() + b"\n\xff\n"
    (tmp_path / "weather.csv").write_bytes(data)
    config = write_config(tmp_path, weather_block="source = file\nfile = weather.csv")
    out = tmp_path / "x"
    for command in ("baseline", "fi"):
        assert main([command, "--config", str(config), "--out", str(out)]) != 0
        assert_one_error(capsys, "OutOfRangeValue", out)


def test_season_export_not_utf8_rejected(tmp_path, capsys):
    write_season(tmp_path / "season_baseline.csv", SEASON_HEADER, "130,9.0,10,1.0,10,3,0.5")
    (tmp_path / "season_fi.csv").write_bytes(SEASON_HEADER.encode() + b"\n\xff\n")
    assert main(["report", str(tmp_path)]) != 0
    assert_one_error(capsys, "MissingArtifacts", tmp_path / "report.csv")
    config = write_config(tmp_path, n_scouts=10)
    out = tmp_path / "x"
    code = main(["train-monitor", "--config", str(config), "--out", str(out),
                 "--season", str(tmp_path / "season_fi.csv")])
    assert code != 0
    assert_one_error(capsys, "MissingArtifacts", out)


def test_step_no_scout_can_take_rejected(tmp_path, capsys):
    config = write_config(tmp_path, n_scouts=20)
    config.write_text(config.read_text() + "\n[scouting]\nstep_length = 1000\n")
    out = tmp_path / "x"
    for command in ("baseline", "fi"):
        assert main([command, "--config", str(config), "--out", str(out)]) != 0
        assert_one_error(capsys, "OutOfRangeValue", out)


def test_huge_steps_per_hour_fails_at_load(tmp_path, capsys):
    config = write_config(tmp_path, n_scouts=10)
    config.write_text(config.read_text() + f"\n[scouting]\nsteps_per_hour = {10**400}\n")
    out = tmp_path / "x"
    for command in ("baseline", "fi"):
        assert main([command, "--config", str(config), "--out", str(out)]) != 0
        assert_one_error(capsys, "ConfigError", out)


def test_season_end_far_past_year_rejected(tmp_path, capsys):
    config = write_config(tmp_path, n_scouts=10, season_end=10**400)
    out = tmp_path / "x"
    for command in ("baseline", "fi"):
        assert main([command, "--config", str(config), "--out", str(out)]) != 0
        assert_one_error(capsys, "OutOfRangeValue", out)


@pytest.mark.parametrize(
    "section,key,bound",
    [("weather", "peak_day", 365), ("supervisor", "control_grid_steps", 401),
     ("scouting", "n_scouts", 100_000)],
    ids=["peak_day", "control_grid_steps", "n_scouts"],
)
@pytest.mark.parametrize("value", ["bound_plus_1", "huge"])
def test_int_key_past_its_bound_fails_at_load(tmp_path, capsys, monkeypatch, section, key,
                                              bound, value):
    """Each value is rejected when the scenario loads: the weather, the
    season, the loop and the control search all fail if reached."""
    def not_reached(*args, **kwargs):
        raise AssertionError("ran past the scenario load")

    for module, name in [(config_mod, "synth_weather"), (cli, "run_season"),
                         (cli, "run_fi_loop"), (supervisor, "optimize_env_control")]:
        monkeypatch.setattr(module, name, not_reached)
    value = bound + 1 if value == "bound_plus_1" else 10**400
    if key == "n_scouts":
        config = write_config(tmp_path, n_scouts=value)
    else:
        config = write_config(tmp_path, n_scouts=10)
        config.write_text(config.read_text() + f"\n[{section}]\n{key} = {value}\n")
    out = tmp_path / "x"
    for command in ("baseline", "fi"):
        assert main([command, "--config", str(config), "--out", str(out)]) != 0
        assert_one_error(capsys, "ConfigError", out)
