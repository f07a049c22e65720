"""Benchmark workloads: generated inputs, per-job CLI commands and output checks.

Every workload is built at run time from the bundled desk scenario
(``src/beeloop/data/desk.conf`` and ``field_desk.map``); no data file is
added to the package. A job is one seed's commands, run through
``beeloop.cli.main`` exactly as a user would type them.

This module does not import beeloop: the parent process uses it to generate
inputs before any interpreter has loaded the package.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The seed the warm-up job runs with; its outputs are checked against the
# workload's pinned digests.
REFERENCE_SEED = 42
TILES = 4

BASELINE_FILES = ("season.csv", "totals.json", "foodflow.csv", "coverage.csv")
FI_FILES = (
    "season_baseline.csv", "season_fi.csv", "totals_baseline.json", "totals_fi.json",
    "coverage_baseline.csv", "coverage_fi.csv", "foodflow_fi.csv", "fi_plan.csv",
    "placed_patches.csv", "loop_trace.csv", "comparison.csv", "region_labels.csv",
)
REPORT_METRICS = 6  # metrics melted per season day by `beeloop report`


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # file name of the generated config under the inputs directory
    commands: Callable[[str, int, Path], list[list[str]]]
    # Expected seconds per job at the commit that defined the benchmark. It
    # only fixes how many jobs a traced run covers, so that the traced counts
    # are a function of (seed, seconds) and repeat exactly.
    nominal_job_s: float
    # Structural checks on one job's output directory; returns error messages.
    check: Callable[[Path], list[str]]
    # sha256 of artifacts of the REFERENCE_SEED job, by path under the job's
    # output directory. Only baseline-season artifacts and paths.csv are
    # pinned: they do not depend on how artificial patches are keyed.
    digests: dict[str, str]


def _desk_case(config: str, seed: int, out: Path) -> list[list[str]]:
    s = str(seed)
    return [
        ["baseline", "--config", config, "--seed", s, "--out", str(out / "baseline")],
        ["fi", "--config", config, "--seed", s, "--out", str(out / "fi"), "--dump-paths"],
        ["report", str(out / "fi")],
    ]


def _colony_baseline(config: str, seed: int, out: Path) -> list[list[str]]:
    return [["baseline", "--config", config, "--seed", str(seed), "--out", str(out / "baseline")]]


def _tiled_fi(config: str, seed: int, out: Path) -> list[list[str]]:
    return [["fi", "--config", config, "--seed", str(seed), "--out", str(out / "fi")]]


def _csv_rows(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def _check_season(season: Path, totals: Path) -> list[str]:
    _, rows = _csv_rows(season)
    t = json.loads(totals.read_text(encoding="utf-8"))
    errors = []
    for col, key in (("total_visits", "total_visits"), ("trips", "total_trips")):
        if sum(int(r[col]) for r in rows) != t[key]:
            errors.append(f"{season.name}: {col} does not sum to {totals.name} {key}")
    return errors


def _check_baseline(out: Path) -> list[str]:
    missing = [f for f in BASELINE_FILES if not (out / f).is_file()]
    if missing:
        return [f"baseline: missing {', '.join(missing)}"]
    return _check_season(out / "season.csv", out / "totals.json")


def _check_fi(out: Path, dump_paths: bool) -> list[str]:
    expected = FI_FILES + (("paths.csv",) if dump_paths else ())
    missing = [f for f in expected if not (out / f).is_file()]
    if missing:
        return [f"fi: missing {', '.join(missing)}"]
    errors = []
    for tag in ("baseline", "fi"):
        errors += _check_season(out / f"season_{tag}.csv", out / f"totals_{tag}.json")
    _, trace = _csv_rows(out / "loop_trace.csv")
    losses = [float(r["loss"]) for r in trace]
    if any(b >= a for a, b in zip(losses, losses[1:])):
        errors.append(f"fi: loop_trace losses do not strictly decrease: {losses}")
    _, plan = _csv_rows(out / "fi_plan.csv")
    summary = [r for r in plan if r["item"] == "summary"]
    if len(summary) != 1:
        errors.append("fi: fi_plan.csv needs exactly one summary row")
    else:
        if int(summary[0]["iterations_used"]) != len(losses):
            errors.append("fi: fi_plan iterations_used differs from loop_trace rows")
        if losses and float(summary[0]["final_loss"]) != losses[-1]:
            errors.append("fi: fi_plan final_loss differs from the last accepted loss")
    return errors


def _check_report(out: Path) -> list[str]:
    path = out / "report.csv"
    if not path.is_file():
        return ["report: missing report.csv"]
    header, rows = _csv_rows(path)
    _, days = _csv_rows(out / "season_fi.csv")
    if header != ["metric", "scenario", "day", "value"]:
        return [f"report: unexpected header {header}"]
    if len(rows) != 2 * REPORT_METRICS * len(days):
        return [f"report: {len(rows)} rows, expected {2 * REPORT_METRICS * len(days)}"]
    return []


def _check_desk_case(out: Path) -> list[str]:
    return (
        _check_baseline(out / "baseline")
        + _check_fi(out / "fi", dump_paths=True)
        + _check_report(out / "fi")
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk_case", "desk.conf", _desk_case, 0.85, _check_desk_case,
            {
                "baseline/season.csv": "d93781650146c5ba553d7edc597ab4a4bbbf2fd29d2ec11d19cfaa534e1355d2",
                "baseline/totals.json": "9a5a50214845128cba704eee86d14d750177fdaaa22b333050a94d4979af8e54",
                "baseline/foodflow.csv": "83145b1b77224fe09976b1d9911c2b379a3520cbb8b200c9e4ecbad3f4240b9c",
                "baseline/coverage.csv": "253234c338f958db9d653e6a73bcf08d11761b03f6d6f5e37d51109d5971694d",
                "fi/paths.csv": "238cc5902c46a795320076d90ac85c12d13b9cd9946c7e270a3e6e939a367d80",
            },
        ),
        Workload(
            "colony_baseline", "colony.conf", _colony_baseline, 2.4,
            lambda out: _check_baseline(out / "baseline"),
            {
                "baseline/season.csv": "e59f577d7f1cc7320e109239798689f71434ae9de662bb886f403d735aca3839",
                "baseline/totals.json": "1ec6a428f3e2de9ba67a95f74fe00253e5ffc8b6dfde713caeefc03fdb0f3c08",
                "baseline/foodflow.csv": "83145b1b77224fe09976b1d9911c2b379a3520cbb8b200c9e4ecbad3f4240b9c",
                "baseline/coverage.csv": "d324a9e08e495394f0662d0f99aa9022500c2599c22ce9e8a9c8c73b1b71fd9e",
            },
        ),
        Workload(
            "tiled_fi", "tiled.conf", _tiled_fi, 0.95,
            lambda out: _check_fi(out / "fi", dump_paths=False),
            {
                "fi/season_baseline.csv": "1c33681431b2f5b2b9aa38596732884acd0bf16de8ebe36b44c4e7a50eedc3c7",
                "fi/totals_baseline.json": "3a358637ea315d81e5b21e97315df4d6903d76265138a82ab78ae02396ecad4c",
                "fi/coverage_baseline.csv": "fffff83915c786856baa58e3558b2bf401e4ec81c74733a87d6f5406e60ee4f0",
            },
        ),
    )
}


def job_seeds(workload: str, seed: int):
    """Endless stream of per-job ``--seed`` values derived from the workload seed."""
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield rng.getrandbits(63)


def tile_map(text: str) -> str:
    """A TILES x TILES mosaic of a map, keeping only the top-left tile's hive."""
    lines = text.splitlines()
    # header lines are ``# key = value`` before the first grid row
    n_header = next(i for i, line in enumerate(lines) if not (line.startswith("#") and "=" in line))
    rows = [line for line in lines[n_header:] if line.strip()]
    out = lines[:n_header]
    for tile_row in range(TILES):
        for row in rows:
            out.append(
                "".join(
                    row if (tile_row, tile_col) == (0, 0) else row.replace("H", ".")
                    for tile_col in range(TILES)
                )
            )
    return "\n".join(out) + "\n"


def _set_key(conf: str, key: str, value: str) -> str:
    new, n = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", conf)
    if n != 1:
        raise ValueError(f"desk.conf has {n} lines for key {key!r}, expected 1")
    return new


def prepare_inputs(root: Path, inputs: Path) -> None:
    """Write every workload's config and map into ``inputs``."""
    data = root / "src" / "beeloop" / "data"
    conf = (data / "desk.conf").read_text(encoding="utf-8")
    desk_map = (data / "field_desk.map").read_text(encoding="utf-8")
    inputs.mkdir(parents=True, exist_ok=True)
    files = {
        "field_desk.map": desk_map,
        "desk.conf": conf,
        "colony.conf": _set_key(conf, "n_scouts", "10000"),
        "tiled_4x4.map": tile_map(desk_map),
        "tiled.conf": _set_key(conf, "map", "tiled_4x4.map"),
    }
    for name, text in files.items():
        (inputs / name).write_text(text, encoding="utf-8", newline="\n")


def tree_digests(out: Path) -> dict[str, str]:
    """sha256 of every file under ``out``, keyed by its relative path."""
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def check_digests(workload: Workload, digests: dict[str, str]) -> list[str]:
    """Compare the reference job's files against the pinned digests, file by file."""
    return [
        f"{path}: sha256 {digests.get(path, 'missing')} != pinned {want}"
        for path, want in workload.digests.items()
        if digests.get(path) != want
    ]
