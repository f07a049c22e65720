import numpy as np
import pytest

from beeloop.cli import default_config_path
from beeloop.landscape import EMPTY, HIVE, CellGrid, derive_patches, load_map


@pytest.fixture(scope="session")
def desk_grid():
    return load_map(default_config_path().parent / "field_desk.map")


@pytest.fixture(scope="session")
def desk_patches(desk_grid):
    return derive_patches(desk_grid)


def make_map(rows: list[str], cell_size: float = 100.0) -> str:
    return f"# cell_size_m = {cell_size!r}\n" + "\n".join(rows) + "\n"


def tiled_grid(grid: CellGrid, tiles: int = 4) -> CellGrid:
    """A tiles x tiles mosaic of ``grid`` keeping only the top-left hive."""
    cells = np.tile(grid.cells, (tiles, tiles))
    other_hives = cells == HIVE
    other_hives[: grid.height, : grid.width] = False
    cells[other_hives] = EMPTY
    return CellGrid(grid.width * tiles, grid.height * tiles, grid.cell_size, cells)


def sensing_rows(keys: np.ndarray) -> dict[int, list[int]]:
    """Cell -> patch ids, in key order, of a sensing map's ``cell << 32 | id`` keys."""
    rows: dict[int, list[int]] = {}
    for key in keys.tolist():
        rows.setdefault(key >> 32, []).append(key & 0xFFFFFFFF)
    return rows
