"""Field maps, flower patches and spatial geometry.

A landscape is an ASCII cell grid: `.` empty, `Y` crop, `#` obstacle, `H`
hive (exactly one), `A` artificial food. Crop patches are 4-connected
components of `Y` cells; artificial patches are 4-connected components of
`A` cells. Header lines of the form ``# key = value`` before the first grid
row carry metadata (``cell_size_m``). A grid row can itself start with `#`
(an obstacle): rows never contain ``=``, which is what disambiguates them.

Patch members are numbered in the order a depth-first flood fill pops them,
and a centroid is the left-to-right float sum of its members' coordinates.
At a cell size that is not a dyadic fraction the sum's rounding depends on
that order (at 0.3 m, 660 of the 3 920 centroids of a 4x4 desk tiling change
if summed in scan order), so the pop order is part of the output. One
depth-first pass over the grid keeps it: it records every component's
members back to back in pop order, and every other patch field comes from
array passes over that record. ``np.bincount`` adds each component's terms
in element order, so its centroid sums are the left-to-right sums bit for
bit; a pairwise sum (``np.add.reduceat``, ``np.sum``) is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    MultipleHivesError,
    NoHiveError,
    OutOfRangeValueError,
    RaggedRowsError,
    UnknownSymbolError,
    ZeroRegionsError,
    read_utf8,
    write_utf8,
)
from .rng import ordered_sum

EMPTY, CROP, OBSTACLE, HIVE, ARTIFICIAL = 0, 1, 2, 3, 4

_SYMBOL_TO_KIND = {".": EMPTY, "Y": CROP, "#": OBSTACLE, "H": HIVE, "A": ARTIFICIAL}
# The ASCII code of each kind's symbol, and the kind of each ASCII code point
# (-1 for an unknown symbol; parse_map clamps larger code points to the last
# entry, DEL, which is unknown).
_CODE_OF_KIND = np.zeros(len(_SYMBOL_TO_KIND), dtype=np.uint8)
_KIND_OF_CODE = np.full(128, -1, dtype=np.int8)
for _sym, _kind in _SYMBOL_TO_KIND.items():
    _CODE_OF_KIND[_kind] = ord(_sym)
    _KIND_OF_CODE[ord(_sym)] = _kind

DEFAULT_CELL_SIZE_M = 125.0


@dataclass(eq=False)
class CellGrid:
    """Rectangular cell grid; ``cells[row, col]`` holds a cell kind code."""

    width: int
    height: int
    cell_size: float
    cells: np.ndarray  # (height, width) int8

    def __eq__(self, other) -> bool:
        if not isinstance(other, CellGrid):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and self.cell_size == other.cell_size
            and np.array_equal(self.cells, other.cells)
        )

    @property
    def hive_cell(self) -> tuple[int, int]:
        """(col, row) of the unique hive cell."""
        rows, cols = np.nonzero(self.cells == HIVE)
        return int(cols[0]), int(rows[0])

    @property
    def hive_xy_m(self) -> tuple[float, float]:
        """Hive cell center in meters."""
        cx, cy = self.hive_cell
        return (cx + 0.5) * self.cell_size, (cy + 0.5) * self.cell_size

    def obstacle_mask(self) -> np.ndarray:
        return self.cells == OBSTACLE

    def traversable_count(self) -> int:
        return int(np.count_nonzero(self.cells != OBSTACLE))


@dataclass(frozen=True)
class Patch:
    """One contiguous food source with its bookkeeping attributes."""

    id: int
    centroid: tuple[float, float]  # meters
    area: float  # m^2
    cell_members: tuple[int, ...]  # flat indices row*width+col
    distance_from_hive: float  # meters
    nectar_quantity: float  # liters
    pollen_quantity: float  # grams
    detection_probability: float
    artificial: bool


@dataclass(frozen=True)
class PatchParams:
    """Scale constants for patch attributes.

    ``kappa`` sets detection probability 1 - exp(-kappa * cells); the
    functional form is a modeling choice exposed here so it can be retuned.
    Artificial patches get a fixed detection probability and a nectar load
    expressed as a fraction of the mean crop patch nectar.
    """

    kappa: float = 0.05
    nectar_per_m2: float = 0.002  # liters
    pollen_per_m2: float = 0.1  # grams
    artificial_detect: float = 0.95
    artificial_nectar_fraction: float = 0.1

    def __post_init__(self):
        if not all(v >= 0 for v in (self.kappa, self.nectar_per_m2, self.pollen_per_m2,
                                    self.artificial_nectar_fraction)):
            raise ValueError("patch scale constants must be non-negative")
        if not (0.0 <= self.artificial_detect <= 1.0):
            raise ValueError("artificial_detect must be in [0, 1]")


@dataclass(frozen=True)
class RegionTiling:
    rows: int
    cols: int
    region_of_cell: np.ndarray = field(repr=False)  # (height, width) int32

    @property
    def n_regions(self) -> int:
        return self.rows * self.cols


def parse_map(text: str) -> CellGrid:
    """Parse map text into a validated CellGrid.

    A ``#`` line holding ``=`` before the grid rows is a header. The one
    header is ``cell_size_m``, at most once; any other key, or a second
    ``cell_size_m``, is UnknownSymbol. Raises NoHive, MultipleHives,
    RaggedRows or UnknownSymbol with the offending line/column in the message.
    """
    cell_size = None
    lines = text.splitlines()
    grid_rows: list[str] = []
    row_lines: list[int] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r")
        if not grid_rows and line.startswith("#") and "=" in line:
            key, _, value = line.lstrip("#").partition("=")
            if key.strip() != "cell_size_m" or cell_size is not None:
                raise UnknownSymbolError(
                    f"unknown or repeated map header {key.strip()!r} at line {lineno}"
                )
            try:
                cell_size = float(value.strip())
            except ValueError:
                raise UnknownSymbolError(
                    f"bad cell_size_m value {value.strip()!r} at line {lineno}"
                )
            continue
        if not line.strip():
            continue
        grid_rows.append(line)
        row_lines.append(lineno)

    if not grid_rows:
        raise RaggedRowsError("map has no grid rows")
    # rows must be contiguous: a blank line inside the grid hides a row
    if row_lines[-1] - row_lines[0] != len(row_lines) - 1:
        raise RaggedRowsError("blank line inside the grid rows")

    # One lookup over the code points of the rows before the first ragged
    # row; its first unknown symbol or second hive in scan order is reported
    # before the ragged row itself, as a row-by-row scan would.
    width = len(grid_rows[0])
    ragged = next((r for r, row in enumerate(grid_rows) if len(row) != width), len(grid_rows))
    codes = np.frombuffer(
        "".join(grid_rows[:ragged]).encode("utf-32-le", "surrogatepass"), dtype="<u4"
    )
    kinds = _KIND_OF_CODE[np.minimum(codes, len(_KIND_OF_CODE) - 1)]
    hives = np.flatnonzero(kinds == HIVE)
    bad = np.flatnonzero(kinds < 0)[:1].tolist() + hives[1:2].tolist()
    if bad:
        i = min(bad)
        r, c = divmod(i, width)
        where = f"at line {row_lines[r]}, column {c + 1}"
        if kinds[i] == HIVE:
            raise MultipleHivesError(f"second hive {where}")
        raise UnknownSymbolError(f"unknown symbol {chr(codes[i])!r} {where}")
    if ragged < len(grid_rows):
        raise RaggedRowsError(
            f"row at line {row_lines[ragged]} has width {len(grid_rows[ragged])}, "
            f"expected {width}"
        )
    if not hives.size:
        raise NoHiveError("map contains no hive cell")
    cell_size = DEFAULT_CELL_SIZE_M if cell_size is None else cell_size
    if not (cell_size > 0 and math.isfinite(cell_size)):
        raise UnknownSymbolError(f"cell_size_m must be positive and finite, got {cell_size}")
    cells = kinds.reshape(len(grid_rows), width)
    return CellGrid(width=width, height=len(grid_rows), cell_size=cell_size, cells=cells)


def serialize_map(grid: CellGrid) -> str:
    """Inverse of parse_map; parse(serialize(g)) == g."""
    text = _CODE_OF_KIND[grid.cells].tobytes().decode("ascii")
    w = grid.width
    rows = [text[i : i + w] for i in range(0, len(text), w)]
    return "\n".join([f"# cell_size_m = {grid.cell_size!r}", *rows]) + "\n"


def load_map(path) -> CellGrid:
    return parse_map(read_utf8(path, UnknownSymbolError))


def _connected_components(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """4-connected components of True cells: ``(members, sizes)``, int64.

    ``members`` holds every component's flat indices ``row*width+col`` back to
    back, components in scan order of their first cell, and each component's
    cells in the order a depth-first search pops them, pushing neighbours up,
    down, left, right. ``sizes`` holds the components' cell counts.
    """
    height, width = mask.shape
    # A zero row above and below and a zero column after each row (which is
    # also left of the next row) let the fill step without bounds checks.
    stride = width + 1
    padded = np.zeros((height + 2, stride), dtype=np.uint8)
    padded[1:-1, :width] = mask
    unseen = bytearray(padded.tobytes())
    popped: list[int] = []
    sizes: list[int] = []
    pop = popped.append
    for seed in np.flatnonzero(padded).tolist():
        if not unseen[seed]:
            continue
        unseen[seed] = 0
        before = len(popped)
        stack = [seed]
        push, take = stack.append, stack.pop
        while stack:
            p = take()
            pop(p)
            # The four neighbours unrolled: a fifth less time than a loop.
            q = p - stride
            if unseen[q]:
                unseen[q] = 0
                push(q)
            q = p + stride
            if unseen[q]:
                unseen[q] = 0
                push(q)
            q = p - 1
            if unseen[q]:
                unseen[q] = 0
                push(q)
            q = p + 1
            if unseen[q]:
                unseen[q] = 0
                push(q)
        sizes.append(len(popped) - before)
    members = np.array(popped, dtype=np.int64)
    # (row + 1) * stride + col back to row * width + col
    return members - members // stride - width, np.array(sizes, dtype=np.int64)


def _patches(grid: CellGrid, kind: int, first_id: int, params: PatchParams,
             nectar_each: float = 0.0) -> list[Patch]:
    """One Patch per 4-connected component of ``kind`` cells, ids from ``first_id``.

    A crop patch's attributes follow its area; an artificial patch gets
    ``params.artificial_detect``, ``nectar_each`` and no pollen.
    """
    members, sizes = _connected_components(grid.cells == kind)
    n = sizes.size
    cs, width, n_cells = grid.cell_size, grid.width, grid.cells.size
    artificial = kind == ARTIFICIAL
    label = np.repeat(np.arange(n), sizes)
    with np.errstate(over="ignore", invalid="ignore"):
        area = sizes * cs * cs
        if artificial:
            detect = [params.artificial_detect] * n
            nectar, pollen = np.full(n, nectar_each), np.zeros(n)
        else:
            detect = [1.0 - math.exp(-params.kappa * s) for s in sizes.tolist()]
            nectar, pollen = params.nectar_per_m2 * area, params.pollen_per_m2 * area
        # bincount adds each label's weights in element order, which is the
        # depth-first pop order, as Python's left-to-right float sum does.
        cx = np.bincount(label, (members % width + 0.5) * cs, n) / sizes
        cy = np.bincount(label, (members // width + 0.5) * cs, n) / sizes
    finite = np.isfinite(nectar) & np.isfinite(pollen)
    if not finite.all():
        i = int(finite.argmin())
        raise OutOfRangeValueError(
            f"patch {first_id + i} has nectar {nectar[i].item()} and pollen {pollen[i].item()}"
        )
    # Labels ascend, so sorting label-major keys sorts each component's members.
    flat = (np.sort(label * n_cells + members) % n_cells).tolist()
    hx, hy = grid.hive_xy_m
    # Positional in field order: a fifth less time than keywords.
    return [
        Patch(first_id + i, (x, y), a, tuple(flat[end - s : end]), math.hypot(x - hx, y - hy),
              nl, pg, d, artificial)
        for i, (x, y, a, s, end, nl, pg, d) in enumerate(zip(
            cx.tolist(), cy.tolist(), area.tolist(), sizes.tolist(), np.cumsum(sizes).tolist(),
            nectar.tolist(), pollen.tolist(), detect,
        ))
    ]


def derive_patches(grid: CellGrid, params: PatchParams = PatchParams()) -> list[Patch]:
    """One Patch per 4-connected crop component, then artificial clusters.

    Ids are assigned in scan order (crop patches first), so the numbering is
    deterministic for a given grid.
    """
    crop = _patches(grid, CROP, 0, params)
    return crop + artificial_patches(grid, len(crop), artificial_nectar(crop, params), params)


def artificial_nectar(crop: list[Patch], params: PatchParams) -> float:
    """Nectar of one artificial patch: a fraction of the mean crop patch nectar."""
    mean_crop_nectar = (
        ordered_sum(p.nectar_quantity for p in crop) / len(crop) if crop else 0.0
    )
    return params.artificial_nectar_fraction * mean_crop_nectar


def artificial_patches(
    grid: CellGrid, first_id: int, nectar: float, params: PatchParams = PatchParams()
) -> list[Patch]:
    """One Patch per 4-connected artificial component, ids from ``first_id``.

    ``first_id`` is the grid's crop patch count and ``nectar`` their
    ``artificial_nectar``. Placing artificial food on empty cells leaves the
    crop patches unchanged, so a caller that edits only artificial cells
    derives them and their nectar once and this part per edit.
    """
    return _patches(grid, ARTIFICIAL, first_id, params, nectar)


def tile_regions(grid: CellGrid, rows: int, cols: int) -> RegionTiling:
    """Partition the grid into rows x cols near-equal rectangles.

    Band sizes are floor(extent / bands); the remainder goes to the last
    band, so a 5-cell extent split in 2 gives bands of 2 and 3 cells.
    """
    if rows < 1 or cols < 1:
        raise ZeroRegionsError(f"tiling needs rows, cols >= 1, got {rows}x{cols}")
    base_h = grid.height // rows
    base_w = grid.width // cols
    if base_h == 0 or base_w == 0:
        raise ZeroRegionsError(
            f"tiling {rows}x{cols} exceeds grid {grid.width}x{grid.height}"
        )
    band_r = np.minimum(np.arange(grid.height) // base_h, rows - 1)
    band_c = np.minimum(np.arange(grid.width) // base_w, cols - 1)
    region = (band_r[:, None] * cols + band_c).astype(np.int32)
    return RegionTiling(rows=rows, cols=cols, region_of_cell=region)


def region_centroids_m(tiling: RegionTiling, grid: CellGrid) -> tuple[np.ndarray, np.ndarray]:
    """Mean cell-center x and y of every region, in meters; NaN if empty.

    Row and column index sums are integers, exact in float64, so each mean is
    the one ``np.mean`` gives over the region's cells.
    """
    height, width = tiling.region_of_cell.shape
    region = tiling.region_of_cell.ravel()
    n = tiling.n_regions
    count = np.bincount(region, minlength=n)
    col_sum = np.bincount(region, np.tile(np.arange(width, dtype=np.float64), height), n)
    row_sum = np.bincount(region, np.repeat(np.arange(height, dtype=np.float64), width), n)
    cs = grid.cell_size
    with np.errstate(invalid="ignore"):
        return (col_sum / count + 0.5) * cs, (row_sum / count + 0.5) * cs


def with_artificial(grid: CellGrid, cells: list[tuple[int, int]]) -> CellGrid:
    """New grid with ArtificialFood placed on the given (col, row) cells."""
    new_cells = grid.cells.copy()
    for col, row in cells:
        if new_cells[row, col] != EMPTY:
            raise ValueError(f"cell ({col}, {row}) is not empty")
        new_cells[row, col] = ARTIFICIAL
    return replace(grid, cells=new_cells)


def write_foodflow(path, patches: list[Patch]) -> None:
    """Per-patch attribute table handed from scouting to foraging."""
    write_utf8(path, [
        "id,x_m,y_m,size_m2,dist_m,nectar_l,pollen_g,detect_prob,artificial\n",
        *(f"{p.id},{p.centroid[0]!r},{p.centroid[1]!r},{p.area!r},"
          f"{p.distance_from_hive!r},{p.nectar_quantity!r},{p.pollen_quantity!r},"
          f"{p.detection_probability!r},{int(p.artificial)}\n" for p in patches),
    ])
