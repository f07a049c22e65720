"""Command line front-end: baseline, fi, report, train-monitor.

All artifacts land strictly under the scenario output directory. Every
failure path prints exactly one ``error: <Code>`` line on stderr and exits
nonzero; outputs are byte-identical across runs with the same seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import config as config_mod
from .control import pretrained_softmax, write_labels_csv, write_proposals_csv
from .errors import MissingArtifactsError, OutOfRangeValueError, SimError
from .errors import plain_number, read_utf8, write_utf8
from .foraging import SEASON_COLUMNS, run_season, write_season_csv, write_totals
from .landscape import derive_patches, load_map, write_foodflow
from .metrics import compare, write_comparison_csv
from .monitor import fit, r_squared, save_model, season_samples, split_samples
from .scouting import write_coverage_csv, write_trajectories_csv
from .supervisor import run_fi_loop, write_fi_plan_csv, write_loop_trace_csv

TEST_FRACTION = 0.2


def default_config_path() -> Path:
    return Path(__file__).parent / "data" / "desk.conf"


def _build_classifier(scenario):
    if scenario.classifier_kind == "threshold":
        return scenario.thresholds
    return pretrained_softmax(scenario.seed, scenario.thresholds)


def _write_season(out: Path, season, suffix: str = "") -> None:
    """One season's CSV, totals JSON and coverage CSV, their names ending in ``suffix``."""
    write_season_csv(out / f"season{suffix}.csv", season)
    write_totals(out / f"totals{suffix}.json", season.totals)
    write_coverage_csv(out / f"coverage{suffix}.csv", season.scout_report)


def cmd_baseline(scenario, dump_paths: bool = False) -> int:
    grid = load_map(scenario.map_path)
    patches = derive_patches(grid, scenario.settings.patch_params)
    weather = config_mod.weather_for(scenario)
    season = run_season(
        grid, patches, weather, None, scenario.colony,
        scenario.settings.scout_cadence_days, scenario.scout, scenario.seed,
        scenario.settings.cap_h(None), collect_trajectories=dump_paths,
    )
    out = scenario.out_dir
    out.mkdir(parents=True, exist_ok=True)
    _write_season(out, season)
    write_foodflow(out / "foodflow.csv", patches)
    if dump_paths:
        write_trajectories_csv(out / "paths.csv", season.scout_report.trajectories)
    return 0


def cmd_fi(scenario, dump_paths: bool = False) -> int:
    grid = load_map(scenario.map_path)
    weather = config_mod.weather_for(scenario)
    classifier = _build_classifier(scenario)
    plan, trace, baseline, final = run_fi_loop(
        grid, weather, scenario.colony, scenario.scout, classifier,
        scenario.user_cfg, scenario.seed, scenario.settings,
        collect_trajectories=dump_paths,
    )

    out = scenario.out_dir
    out.mkdir(parents=True, exist_ok=True)
    _write_season(out, baseline, "_baseline")
    _write_season(out, final, "_fi")
    write_foodflow(out / "foodflow_fi.csv", plan.final_patches)
    write_fi_plan_csv(out / "fi_plan.csv", plan)
    write_proposals_csv(out / "placed_patches.csv", list(plan.placed_patches))
    write_loop_trace_csv(out / "loop_trace.csv", trace)
    write_comparison_csv(
        out / "comparison.csv",
        compare(baseline, final, scenario.user_cfg.w1, scenario.user_cfg.w2),
    )
    write_labels_csv(out / "region_labels.csv", plan.region_labels)
    if dump_paths:
        write_trajectories_csv(out / "paths.csv", baseline.scout_report.trajectories)
    return 0


def _read_season_csv(path: Path, columns: tuple[str, ...]) -> list[dict[str, str]]:
    """Rows of a season export, each holding an integer ``day`` and ``columns``.

    A missing file, a missing column, a row of the wrong width, a day that
    is repeated, a day or a requested ``total_visits`` that is not plain
    ASCII digits, or bytes that are not UTF-8, are a MissingArtifacts error.
    """
    if not path.is_file():
        raise MissingArtifactsError(f"missing season export: {path}")
    lines = read_utf8(path, MissingArtifactsError).splitlines()
    header = lines[0].split(",") if lines else []
    missing = [c for c in ["day", *columns] if c not in header]
    if missing:
        raise MissingArtifactsError(f"{path} has no column {missing[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    digits = {c: header.index(c) for c in ["day", *columns] if c in ("day", "total_visits")}
    line_of_day: dict[int, int] = {}
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise MissingArtifactsError(f"{path} line {lineno} has {len(row)} fields")
        # What ``write_season_csv`` writes: ASCII digits, no sign, space,
        # underscore or point.
        for name, i in digits.items():
            if not (row[i].isascii() and row[i].isdigit()):
                raise MissingArtifactsError(f"{path} line {lineno} has {name} {row[i]!r}")
        d = int(row[digits["day"]])
        if d in line_of_day:
            raise MissingArtifactsError(f"{path} lines {line_of_day[d]} and {lineno} hold day {d}")
        line_of_day[d] = lineno
    return [dict(zip(header, row)) for row in rows]


def cmd_report(run_dir: Path) -> int:
    """Melt both season exports into plot-ready long format."""
    sources = {"baseline": run_dir / "season_baseline.csv", "fi": run_dir / "season_fi.csv"}
    rows = []
    for scenario_name, path in sources.items():
        for record in _read_season_csv(path, SEASON_COLUMNS):
            for m in SEASON_COLUMNS:
                rows.append((m, scenario_name, record["day"], record[m]))
    rows.sort(key=lambda r: (r[0], r[1], int(r[2])))
    write_utf8(run_dir / "report.csv", [
        "metric,scenario,day,value\n", *(f"{m},{s},{d},{v}\n" for m, s, d, v in rows)
    ])
    return 0


def cmd_train_monitor(scenario, season_csv: Path | None) -> int:
    """Fit the monitoring model from a season export and print it."""
    path = season_csv if season_csv is not None else scenario.out_dir / "season.csv"
    records = _read_season_csv(path, ("total_visits",))
    weather = config_mod.weather_for(scenario)
    samples = season_samples(
        weather, ((int(r["day"]), r["total_visits"]) for r in records), None,
        scenario.settings.cap_h(None),
    )
    train, test = split_samples(samples, TEST_FRACTION, scenario.seed)
    model = fit(train)
    out = scenario.out_dir
    out.mkdir(parents=True, exist_ok=True)
    save_model(out / "monitor.txt", model)
    sys.stdout.write((out / "monitor.txt").read_text(encoding="utf-8"))
    sys.stdout.write(f"r_squared_test: {r_squared(model, test)!r}\n")
    return 0


def _seed(text: str | None) -> int | None:
    """``--seed``'s integer; load_scenario checks its range."""
    try:
        return None if text is None else plain_number(text, int)
    except ValueError:
        raise OutOfRangeValueError(f"seed must be an integer in [0, 2**64), got {text!r}")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beeloop",
        description="Bee foraging simulator with a patch-placement feedback loop",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("baseline", "fi", "train-monitor"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=default_config_path())
        p.add_argument("--seed", default=None, help="override config seed")
        p.add_argument("--out", type=Path, default=None, help="override output directory")
        if name in ("baseline", "fi"):
            p.add_argument("--dump-paths", action="store_true")
        if name == "train-monitor":
            p.add_argument("--season", type=Path, default=None, help="season.csv to fit on")
    p = sub.add_parser("report")
    p.add_argument("run_dir", type=Path, help="directory holding fi command outputs")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.run_dir)
        scenario = config_mod.load_scenario(args.config, _seed(args.seed), args.out)
        if args.command == "baseline":
            return cmd_baseline(scenario, args.dump_paths)
        if args.command == "fi":
            return cmd_fi(scenario, args.dump_paths)
        if args.command == "train-monitor":
            return cmd_train_monitor(scenario, args.season)
        raise AssertionError(f"unhandled command {args.command}")
    except SimError as err:
        print(f"error: {err.code}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
