#!/usr/bin/env python3
"""sha256 of every artifact over a fixed matrix of scenarios and commands.

Each case runs ``baseline --dump-paths``, ``fi --dump-paths`` and ``report``
in a temporary directory and prints one ``<sha256>  <case>/<path>`` line per
file written, sorted by path. The cases are the bundled ``desk.conf`` and
four variants of it (monitor refit, softmax classifier, a cold climate and
an empty season) at each seed, plus a 4x4 tiling of the desk map at seed 42.

Run it against two checkouts and diff the output to check that a change
keeps every output byte:

    PYTHONPATH=src python scripts/artifact_digests.py > after.txt
    PYTHONPATH=../other/src python scripts/artifact_digests.py > before.txt
    diff before.txt after.txt

Usage: python scripts/artifact_digests.py [--seeds 1,7,42]
"""

import argparse
import hashlib
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from beeloop.cli import default_config_path, main as cli_main
from beeloop.landscape import EMPTY, HIVE, CellGrid, load_map, serialize_map

VARIANTS = {
    "desk": {},
    "refit": {"refit_each_iteration": "true"},
    "softmax": {"classifier": "softmax"},
    "cold": {"temp_mean_c": "-10"},
    "empty_season": {"season_end": "90"},
}
TILES = 4
TILED_SEED = 42


def set_keys(conf: str, values: dict[str, str]) -> str:
    for key, value in values.items():
        conf, n = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", conf)
        if n != 1:
            raise ValueError(f"desk.conf has {n} lines for key {key!r}, expected 1")
    return conf


def tiled_map_text(grid: CellGrid) -> str:
    """A TILES x TILES mosaic of ``grid`` keeping only the top-left hive."""
    cells = np.tile(grid.cells, (TILES, TILES))
    other_hives = cells == HIVE
    other_hives[: grid.height, : grid.width] = False
    cells[other_hives] = EMPTY
    return serialize_map(CellGrid(grid.width * TILES, grid.height * TILES, grid.cell_size, cells))


def run_case(config: Path, seed: int, out: Path) -> None:
    for argv in (
        ["baseline", "--config", str(config), "--seed", str(seed),
         "--out", str(out / "baseline"), "--dump-paths"],
        ["fi", "--config", str(config), "--seed", str(seed),
         "--out", str(out / "fi"), "--dump-paths"],
        ["report", str(out / "fi")],
    ):
        if cli_main(argv) != 0:
            raise SystemExit(f"beeloop {' '.join(argv)} failed")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,7,42", help="comma-separated seeds")
    seeds = [int(s) for s in parser.parse_args().seeds.split(",")]

    data = default_config_path().parent
    conf = (data / "desk.conf").read_text(encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "field_desk.map").write_text(
            (data / "field_desk.map").read_text(encoding="utf-8"), encoding="utf-8"
        )
        (root / "tiled.map").write_text(
            tiled_map_text(load_map(data / "field_desk.map")), encoding="utf-8"
        )
        cases = []
        for name, values in VARIANTS.items():
            (root / f"{name}.conf").write_text(set_keys(conf, values), encoding="utf-8")
            cases += [(name, seed) for seed in seeds]
        (root / "tiled.conf").write_text(set_keys(conf, {"map": "tiled.map"}), encoding="utf-8")
        cases.append(("tiled", TILED_SEED))

        runs = root / "runs"
        for name, seed in cases:
            run_case(root / f"{name}.conf", seed, runs / f"{name}_seed{seed}")
        for path in sorted(p for p in runs.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(runs).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
