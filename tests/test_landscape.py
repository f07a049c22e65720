import hashlib
import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from beeloop.errors import (
    MultipleHivesError,
    NoHiveError,
    OutOfRangeValueError,
    RaggedRowsError,
    SimError,
    UnknownSymbolError,
    ZeroRegionsError,
)
from beeloop.control import RegionFeatures, extract_features
from beeloop.landscape import (
    ARTIFICIAL,
    CROP,
    DEFAULT_CELL_SIZE_M,
    EMPTY,
    HIVE,
    OBSTACLE,
    CellGrid,
    Patch,
    PatchParams,
    RegionTiling,
    artificial_nectar,
    artificial_patches,
    derive_patches,
    parse_map,
    region_centroids_m,
    serialize_map,
    tile_regions,
    with_artificial,
)
from beeloop.rng import generator, ordered_sum
from beeloop.scouting import ScoutReport, write_coverage_csv

from conftest import make_map, tiled_grid


def test_parse_minimal_map():
    grid = parse_map(make_map(["...", ".H.", "..."]))
    assert grid.width == 3 and grid.height == 3
    assert grid.cell_size == 100.0
    assert int((grid.cells == HIVE).sum()) == 1
    assert int((grid.cells == EMPTY).sum()) == 8
    assert grid.hive_cell == (1, 1)


def test_parse_two_hives_rejected():
    with pytest.raises(MultipleHivesError):
        parse_map(make_map(["H..", "..H"]))


def test_parse_no_hive_rejected():
    with pytest.raises(NoHiveError):
        parse_map(make_map(["...", "YYY"]))


def test_parse_ragged_rows_rejected():
    with pytest.raises(RaggedRowsError) as err:
        parse_map(make_map(["...", "..", "H.."]))
    assert "width" in str(err.value)


def test_parse_unknown_symbol_names_position():
    with pytest.raises(UnknownSymbolError) as err:
        parse_map(make_map(["..x", ".H."]))
    assert "line 2" in str(err.value) and "column 3" in str(err.value)


def test_obstacle_row_is_not_a_header():
    grid = parse_map(make_map(["###", ".H.", "###"]))
    assert int((grid.cells == CROP).sum()) == 0
    assert grid.height == 3


def test_blank_line_inside_grid_rejected():
    with pytest.raises(RaggedRowsError):
        parse_map("...\n\n.H.\n")
    # trailing blank lines are fine
    parse_map("...\n.H.\n\n\n")


def test_bad_cell_size_header_rejected():
    with pytest.raises(UnknownSymbolError):
        parse_map("# cell_size_m = banana\n.H.\n")


@pytest.mark.parametrize(
    "headers",
    ["# cellsize_m = 100\n", "# cell_size_m = 50\n# cell_size_m = 200\n"],
    ids=["unknown_key", "repeated_key"],
)
def test_unknown_or_repeated_map_header_rejected(headers):
    with pytest.raises(UnknownSymbolError, match="at line"):
        parse_map(headers + ".H.\n")


def test_roundtrip_serialize_parse(desk_grid):
    assert parse_map(serialize_map(desk_grid)) == desk_grid


@given(
    st.integers(2, 6),
    st.integers(2, 6),
    st.integers(0, 10**9),
)
@settings(max_examples=40)
def test_roundtrip_random_grids(width, height, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    symbols = np.array(list(".Y#A"))
    rows = ["".join(rng.choice(symbols, width)) for _ in range(height)]
    hr, hc = int(rng.integers(height)), int(rng.integers(width))
    rows[hr] = rows[hr][:hc] + "H" + rows[hr][hc + 1 :]
    grid = parse_map(make_map(rows, cell_size=50.0))
    assert parse_map(serialize_map(grid)) == grid


def test_desk_landscape_has_245_patches(desk_grid, desk_patches):
    natural = [p for p in desk_patches if not p.artificial]
    assert len(natural) == 245
    assert desk_grid.width == 72 and desk_grid.height == 64
    assert desk_grid.cell_size == 125.0


def test_desk_patch_count_against_union_find(desk_grid, desk_patches):
    # independent oracle: union-find over crop cells
    width = desk_grid.width
    parent = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    crop = desk_grid.cells == CROP
    for r in range(desk_grid.height):
        for c in range(width):
            if not crop[r, c]:
                continue
            idx = r * width + c
            parent[idx] = idx
            if c > 0 and crop[r, c - 1]:
                union(idx, idx - 1)
            if r > 0 and crop[r - 1, c]:
                union(idx, idx - width)
    n_components = len({find(i) for i in parent})
    assert n_components == len([p for p in desk_patches if not p.artificial])


def test_patches_partition_crop_cells(desk_grid, desk_patches):
    crop_cells = {
        int(r) * desk_grid.width + int(c)
        for r, c in zip(*np.nonzero(desk_grid.cells == CROP))
    }
    seen = []
    for p in desk_patches:
        if not p.artificial:
            seen.extend(p.cell_members)
    assert len(seen) == len(set(seen))
    assert set(seen) == crop_cells


def test_single_cell_detection_probability():
    grid = parse_map(make_map(["Y.", ".H"]))
    (patch,) = derive_patches(grid, PatchParams(kappa=0.05))
    assert patch.detection_probability == 1.0 - math.exp(-0.05)
    assert abs(patch.detection_probability - 0.04877) < 5e-6


def test_diagonal_cells_are_two_patches():
    grid = parse_map(make_map(["Y..", ".Y.", "..H"]))
    patches = derive_patches(grid)
    assert len(patches) == 2


def test_no_crop_yields_no_patches():
    grid = parse_map(make_map(["...", ".H."]))
    assert derive_patches(grid) == []


@given(st.integers(1, 400), st.integers(1, 400))
def test_detection_probability_monotone_in_area(a, b):
    params = PatchParams(kappa=0.05)
    pa = 1.0 - math.exp(-params.kappa * a)
    pb = 1.0 - math.exp(-params.kappa * b)
    if a < b:
        assert pa < pb
    assert 0.0 < pa < 1.0


def test_patch_attributes_scale_with_area():
    grid = parse_map(make_map(["YY.", "YY.", "..H"]))
    (patch,) = derive_patches(grid, PatchParams())
    assert patch.area == 4 * 100.0 * 100.0
    assert patch.nectar_quantity == pytest.approx(0.002 * patch.area)
    assert patch.pollen_quantity == pytest.approx(0.1 * patch.area)


def test_hive_at_patch_centroid_distance_zero():
    # ring of crop around the hive cell: centroid falls on the hive center
    grid = parse_map(make_map(["YYY", "YHY", "YYY"]))
    (patch,) = derive_patches(grid)
    assert patch.distance_from_hive == 0.0


def test_artificial_patches_flagged_with_overrides():
    grid = parse_map(make_map(["YYY", "..A", "H.."]))
    params = PatchParams(artificial_detect=0.95, artificial_nectar_fraction=0.1)
    patches = derive_patches(grid, params)
    art = [p for p in patches if p.artificial]
    crop = [p for p in patches if not p.artificial]
    assert len(art) == 1 and len(crop) == 1
    assert art[0].detection_probability == 0.95
    assert art[0].nectar_quantity == pytest.approx(0.1 * crop[0].nectar_quantity)
    assert art[0].pollen_quantity == 0.0


def test_tile_regions_exact_division():
    grid = parse_map(make_map(["...H", "....", "....", "...."]))
    tiling = tile_regions(grid, 2, 2)
    sizes = [int((tiling.region_of_cell == r).sum()) for r in range(4)]
    assert sizes == [4, 4, 4, 4]


def test_tile_regions_remainder_to_last():
    grid = parse_map(make_map(["....H", ".....", ".....", ".....", "....."]))
    tiling = tile_regions(grid, 2, 2)
    sizes = sorted(int((tiling.region_of_cell == r).sum()) for r in range(4))
    assert sizes == [4, 6, 6, 9]


def test_tile_regions_identity():
    grid = parse_map(make_map(["..", ".H"]))
    tiling = tile_regions(grid, 1, 1)
    assert np.all(tiling.region_of_cell == 0)


def test_tile_regions_rejects_zero():
    grid = parse_map(make_map(["..", ".H"]))
    with pytest.raises(ZeroRegionsError):
        tile_regions(grid, 0, 2)


@given(st.integers(1, 7), st.integers(1, 7))
@settings(max_examples=30)
def test_tiling_partitions_every_cell(rows, cols):
    grid = parse_map(make_map(["......H", ".......", ".......",
                               ".......", ".......", ".......", "......."]))
    tiling = tile_regions(grid, rows, cols)
    assert tiling.region_of_cell.min() >= 0
    assert tiling.region_of_cell.max() < rows * cols
    assert int((tiling.region_of_cell >= 0).sum()) == grid.width * grid.height


def test_with_artificial_rejects_occupied_cell():
    grid = parse_map(make_map(["Y.", ".H"]))
    with pytest.raises(ValueError):
        with_artificial(grid, [(0, 0)])
    updated = with_artificial(grid, [(1, 0)])
    assert updated.cells[0, 1] != EMPTY
    assert grid.cells[0, 1] == EMPTY  # original untouched



# -- reference implementations ----------------------------------------------
# The per-cell loops that the array code in beeloop.landscape and
# beeloop.control replaced, kept verbatim as oracles for the tests below.

REF_SYMBOL_TO_KIND = {".": EMPTY, "Y": CROP, "#": OBSTACLE, "H": HIVE, "A": ARTIFICIAL}


def ref_parse_map(text):
    cell_size = DEFAULT_CELL_SIZE_M
    lines = text.splitlines()
    grid_rows = []
    row_lines = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r")
        if not grid_rows and line.startswith("#") and "=" in line:
            key, _, value = line.lstrip("#").partition("=")
            if key.strip() == "cell_size_m":
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
    if row_lines[-1] - row_lines[0] != len(row_lines) - 1:
        raise RaggedRowsError("blank line inside the grid rows")

    width = len(grid_rows[0])
    height = len(grid_rows)
    cells = np.zeros((height, width), dtype=np.int8)
    hive_at = None
    for r, row in enumerate(grid_rows):
        if len(row) != width:
            raise RaggedRowsError(
                f"row at line {row_lines[r]} has width {len(row)}, expected {width}"
            )
        for c, sym in enumerate(row):
            kind = REF_SYMBOL_TO_KIND.get(sym)
            if kind is None:
                raise UnknownSymbolError(
                    f"unknown symbol {sym!r} at line {row_lines[r]}, column {c + 1}"
                )
            if kind == HIVE:
                if hive_at is not None:
                    raise MultipleHivesError(
                        f"second hive at line {row_lines[r]}, column {c + 1}"
                    )
                hive_at = (c, r)
            cells[r, c] = kind
    if hive_at is None:
        raise NoHiveError("map contains no hive cell")
    if cell_size <= 0:
        raise UnknownSymbolError(f"cell_size_m must be positive, got {cell_size}")
    return CellGrid(width=width, height=height, cell_size=cell_size, cells=cells)


def ref_connected_components(mask):
    height, width = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    components = []
    for r0 in range(height):
        for c0 in range(width):
            if not mask[r0, c0] or seen[r0, c0]:
                continue
            stack = [(r0, c0)]
            seen[r0, c0] = True
            members = []
            while stack:
                r, c = stack.pop()
                members.append((r, c))
                for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < height and 0 <= cc < width and mask[rr, cc] and not seen[rr, cc]:
                        seen[rr, cc] = True
                        stack.append((rr, cc))
            components.append(members)
    return components


def ref_derive_patches(grid, params=PatchParams()):
    hx, hy = grid.hive_xy_m
    cs = grid.cell_size
    patches = []

    def build(members, pid, artificial, detect, nectar, pollen):
        xs = [(c + 0.5) * cs for _, c in members]
        ys = [(r + 0.5) * cs for r, _ in members]
        centroid = (ordered_sum(xs) / len(xs), ordered_sum(ys) / len(ys))
        flat = tuple(sorted(r * grid.width + c for r, c in members))
        return Patch(
            id=pid,
            centroid=centroid,
            area=len(members) * cs * cs,
            cell_members=flat,
            distance_from_hive=math.hypot(centroid[0] - hx, centroid[1] - hy),
            nectar_quantity=nectar,
            pollen_quantity=pollen,
            detection_probability=detect,
            artificial=artificial,
        )

    for members in ref_connected_components(grid.cells == CROP):
        n = len(members)
        area_m2 = n * cs * cs
        patches.append(
            build(
                members,
                len(patches),
                False,
                1.0 - math.exp(-params.kappa * n),
                params.nectar_per_m2 * area_m2,
                params.pollen_per_m2 * area_m2,
            )
        )
    mean_crop_nectar = (
        ordered_sum(p.nectar_quantity for p in patches) / len(patches) if patches else 0.0
    )
    for members in ref_connected_components(grid.cells == ARTIFICIAL):
        patches.append(
            build(
                members,
                len(patches),
                True,
                params.artificial_detect,
                params.artificial_nectar_fraction * mean_crop_nectar,
                0.0,
            )
        )
    return patches


def ref_tile_regions(grid, rows, cols):
    if rows < 1 or cols < 1:
        raise ZeroRegionsError(f"tiling needs rows, cols >= 1, got {rows}x{cols}")
    base_h = grid.height // rows
    base_w = grid.width // cols
    if base_h == 0 or base_w == 0:
        raise ZeroRegionsError(
            f"tiling {rows}x{cols} exceeds grid {grid.width}x{grid.height}"
        )
    region = np.zeros((grid.height, grid.width), dtype=np.int32)
    for r in range(grid.height):
        band_r = min(r // base_h, rows - 1)
        for c in range(grid.width):
            band_c = min(c // base_w, cols - 1)
            region[r, c] = band_r * cols + band_c
    return RegionTiling(rows=rows, cols=cols, region_of_cell=region)


def ref_region_centroid_m(tiling, grid, region):
    rows, cols = np.nonzero(tiling.region_of_cell == region)
    cs = grid.cell_size
    return (float(cols.mean()) + 0.5) * cs, (float(rows.mean()) + 0.5) * cs


def ref_extract_features(coverage, tiling, grid):
    hx, hy = grid.hive_xy_m
    traversable = ~grid.obstacle_mask()
    out = []
    for region in range(tiling.n_regions):
        mask = (tiling.region_of_cell == region) & traversable
        n = int(np.count_nonzero(mask))
        if n == 0:
            continue
        visits = int(coverage[mask].sum())
        visited = int(np.count_nonzero(coverage[mask]))
        cx, cy = ref_region_centroid_m(tiling, grid, region)
        out.append(
            RegionFeatures(
                region_id=region,
                visit_density=visits / n,
                coverage_fraction=visited / n,
                distance_to_hive=math.hypot(cx - hx, cy - hy),
            )
        )
    return out


def outcome(fn, *args):
    """The value, or the error's type, code and message, for comparisons."""
    try:
        return "ok", fn(*args)
    except SimError as err:
        return type(err), err.code, str(err)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def random_grid(width, height, seed, symbols=".YYYAA#", cell_size=1.0):
    rng = np.random.Generator(np.random.Philox(key=seed))
    kinds = np.array([REF_SYMBOL_TO_KIND[s] for s in symbols], dtype=np.int8)
    cells = rng.choice(kinds, (height, width))
    cells[int(rng.integers(height)), int(rng.integers(width))] = HIVE
    return CellGrid(width, height, cell_size, cells)


# -- outputs pinned before the array rewrite ----------------------------------


@pytest.fixture(scope="module")
def tiled(desk_grid):
    return tiled_grid(desk_grid)


def beacon_grid(grid):
    """``grid`` with every empty cell of one block made artificial: large,
    irregular artificial components between the crop blocks."""
    cells = grid.cells.copy()
    block = cells[70:100, 80:150]
    block[block == EMPTY] = ARTIFICIAL
    return replace(grid, cells=cells)


PIN_CELL_SIZES = {"125": 125.0, "0.3": 0.3, "1/3": 1 / 3, "7.1": 7.1}

PINNED_PATCHES = {
    ("tiled", "125"): "e2432dd81d41c63d406fee06fca0e449929bb52977bdca454577faf2f6e8c3fd",
    ("tiled", "0.3"): "140be00bcac85b17a4137764dcc47497bf56cf90635badacfe6fee20a44dd870",
    ("tiled", "1/3"): "66afab911db90f4c514f598f170edeaf87ee8580ae4061612a0e312c5009f183",
    ("tiled", "7.1"): "425d2aa4f22a7a577aa241fc6b3a023e66fe1db1025f35b728e1aae875cc5514",
    ("beacons", "0.3"): "8900cbbc0bf902c311ddf6b5f6691ae0badee90a9c11bf4f13586a05f845d800",
    ("beacons", "7.1"): "54330e4d6ff2f0dcdeb1b51901793ca378f727a86d363925603d7c3d8ec831cf",
}


@pytest.mark.parametrize("world,cell_size", sorted(PINNED_PATCHES))
def test_derive_patches_pinned(tiled, world, cell_size):
    grid = tiled if world == "tiled" else beacon_grid(tiled)
    grid = replace(grid, cell_size=PIN_CELL_SIZES[cell_size])
    patches = derive_patches(grid)
    assert sha256(repr(patches).encode()) == PINNED_PATCHES[world, cell_size]


PINNED_TILINGS = {
    (5, 7): "b914bcf2b525501ac1fa591b9f732de55671106c0e5842c1fac9728a716e2280",
    (7, 9): "87af60d4260ef0accc4123099f7f476b566026196944622152e7ccd1b13cc13b",
    (8, 8): "87ffa79ffa2aac31057434423d72473cdf216300505eca83fd3b5445e1bc0ab7",
}


@pytest.mark.parametrize("rows,cols", sorted(PINNED_TILINGS))
def test_tile_regions_pinned(tiled, rows, cols):
    region = tile_regions(tiled, rows, cols).region_of_cell
    assert region.dtype == np.int32 and region.shape == (tiled.height, tiled.width)
    assert sha256(region.tobytes()) == PINNED_TILINGS[rows, cols]


def seeded_coverage(shape, kind):
    """Visit counts with about half the cells unvisited; ``large`` values make
    region sums exceed 2**53, where a float accumulation would round."""
    rng = generator(2024, "coverage", kind)
    high = 2**50 if kind == "large" else 40
    cov = rng.integers(0, high, shape, dtype=np.int64)
    cov[rng.random(shape) < 0.5] = 0
    return cov


PINNED_FEATURES = {
    ("counts", 8, 8): "dd8c23643e1cdb7fea4d0b8ccdb1b227e08f1893b5e0a7c6d348ef522a1fdef0",
    ("counts", 5, 7): "9e90b0b1f24d9edec45ed43b24c7ada0456778fba534162f5c6333883e11dcd7",
    ("large", 8, 8): "67f0d7cddea31054f7051b92aa315567688eb123b45ce14077e772d1f7946e9e",
    ("large", 5, 7): "d42fe7b7c3af439057de23f6ccab53c2b4a0baafdd1957b6db62a3f0ad88705a",
}


@pytest.mark.parametrize("kind,rows,cols", sorted(PINNED_FEATURES))
def test_extract_features_pinned(tiled, kind, rows, cols):
    cov = seeded_coverage((tiled.height, tiled.width), kind)
    feats = extract_features(cov, tile_regions(tiled, rows, cols), tiled)
    assert sha256(repr(feats).encode()) == PINNED_FEATURES[kind, rows, cols]


PINNED_COVERAGE_CSV = "44f63e3cbe8dd2713b0dc503b6ebce19851ece84798a8cb0dafe44327b8ad238"


def test_write_coverage_csv_pinned(tiled, tmp_path):
    cov = seeded_coverage((tiled.height, tiled.width), "counts")
    cov[0, 0] = 2**31 + 7
    cov[17, 40] = 2**40
    cov[-1, -1] = 2**63 - 1
    report = ScoutReport(cov, frozenset(), 0.0, 0.0)
    write_coverage_csv(tmp_path / "coverage.csv", report)
    data = (tmp_path / "coverage.csv").read_bytes()
    assert data.count(b"\n") == tiled.height
    assert data.startswith(b"2147483655,0,34,")
    assert sha256(data) == PINNED_COVERAGE_CSV


def test_centroids_sum_members_in_depth_first_order(tiled):
    """At a non-dyadic cell size the order of the centroid's float sum shows:
    summing each patch's members in scan order moves hundreds of centroids,
    so the depth-first member order is part of the output."""
    grid = replace(tiled, cell_size=0.3)
    patches = derive_patches(grid)
    assert patches == ref_derive_patches(grid)
    moved = 0
    for p in patches:
        xs = [(i % grid.width + 0.5) * grid.cell_size for i in p.cell_members]
        ys = [(i // grid.width + 0.5) * grid.cell_size for i in p.cell_members]
        moved += (sum(xs) / len(xs), sum(ys) / len(ys)) != p.centroid
    assert len(patches) == 3920 and moved == 660


# -- equivalence with the references on random inputs ------------------------


@given(
    st.integers(1, 14),
    st.integers(1, 14),
    st.integers(0, 2**32),
    st.sampled_from([125.0, 0.3, 1 / 3, 7.1, 0.1]) | st.floats(0.01, 1000.0),
)
@settings(max_examples=150, deadline=None)
def test_derive_patches_matches_reference(width, height, seed, cell_size):
    grid = random_grid(width, height, seed, cell_size=cell_size)
    params = PatchParams(kappa=0.07, artificial_nectar_fraction=0.3)
    assert derive_patches(grid, params) == ref_derive_patches(grid, params)


@given(
    st.integers(20, 60),
    st.integers(20, 60),
    st.integers(0, 2**32),
    st.floats(0.5, 0.65),
    st.sampled_from([0.3, 1 / 3, 7.1, 125.0]),
)
@example(60, 60, 5, 1.0, 0.3)  # all crop bar the hive: one component spanning the grid
@settings(max_examples=40, deadline=None)
def test_derive_patches_matches_reference_on_percolating_masks(
    width, height, seed, density, cell_size
):
    """Crop at densities around the square lattice's percolation threshold
    (about 0.59) forms long, branched components of hundreds of cells, so the
    depth-first pop order and the centroid sums run far past small maps.
    Half the other cells are artificial."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random((height, width))
    cells = np.where(u < density, CROP, np.where(u < (1 + density) / 2, ARTIFICIAL, EMPTY))
    cells = cells.astype(np.int8)
    cells[int(rng.integers(height)), int(rng.integers(width))] = HIVE
    grid = CellGrid(width, height, cell_size, cells)
    params = PatchParams(kappa=0.07, artificial_nectar_fraction=0.3)
    assert derive_patches(grid, params) == ref_derive_patches(grid, params)


def test_nectar_overflow_names_first_large_patch():
    """With nectar per m2 set so that only patches of more than two cells
    overflow, the error names the first of them, patch 2, and the overflow
    raises no RuntimeWarning on the way."""
    grid = parse_map(make_map(["Y.YY.YYY", "........", "YYYY.YY.", "H......."]))
    patches = derive_patches(grid)
    assert [len(p.cell_members) for p in patches] == [1, 2, 3, 4, 2]
    params = PatchParams(nectar_per_m2=sys.float_info.max / (2.5 * grid.cell_size**2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(OutOfRangeValueError) as err:
            derive_patches(grid, params)
    assert str(err.value) == f"patch 2 has nectar inf and pollen {patches[2].pollen_quantity}"


def crop_of(patches):
    return [p for p in patches if not p.artificial]


@given(
    st.integers(1, 14),
    st.integers(1, 14),
    st.integers(0, 2**32),
    st.sampled_from([".YYYAA#", ".AAAA#", ".YYY#", ".Y.A"]),
    st.sampled_from([125.0, 0.3, 7.1]),
    st.integers(0, 8),
)
@example(6, 5, 11, ".AAAA#", 0.3, 8)  # no crop, artificial clusters of several cells
@settings(max_examples=150, deadline=None)
def test_crop_once_plus_artificial_patches_is_derive_patches(
    width, height, seed, symbols, cell_size, n_new
):
    """Crop patches derived before ``with_artificial`` plus the edited grid's
    artificial patches are the edited grid's patches, with or without ``A``
    cells in the original map."""
    grid = random_grid(width, height, seed, symbols, cell_size)
    params = PatchParams(kappa=0.07, artificial_nectar_fraction=0.3)
    crop = crop_of(ref_derive_patches(grid, params))
    empty = np.argwhere(grid.cells == EMPTY)
    picks = np.random.Generator(np.random.Philox(key=seed)).permutation(len(empty))[:n_new]
    edited = with_artificial(grid, [(int(empty[i, 1]), int(empty[i, 0])) for i in picks])
    want = ref_derive_patches(edited, params)
    nectar = artificial_nectar(crop, params)
    assert crop + artificial_patches(edited, len(crop), nectar, params) == want
    assert derive_patches(edited, params) == want


def test_crop_once_plus_large_artificial_components(tiled):
    crop = crop_of(derive_patches(tiled))
    beacons = beacon_grid(tiled)
    artificial = artificial_patches(beacons, len(crop), artificial_nectar(crop, PatchParams()))
    assert max(len(p.cell_members) for p in artificial) > 100
    assert crop + artificial == derive_patches(beacons)


@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 12), st.integers(0, 12))
@settings(max_examples=150, deadline=None)
def test_tile_regions_matches_reference(width, height, rows, cols):
    grid = CellGrid(width, height, 1.0, np.zeros((height, width), dtype=np.int8))
    got = outcome(tile_regions, grid, rows, cols)
    want = outcome(ref_tile_regions, grid, rows, cols)
    if want[0] != "ok":
        assert got == want
        return
    region = got[1].region_of_cell
    assert (got[1].rows, got[1].cols) == (rows, cols)
    assert region.dtype == np.int32 and region.flags.c_contiguous
    assert np.array_equal(region, want[1].region_of_cell)


@given(
    st.integers(1, 30),
    st.integers(1, 30),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 2**32),
    st.sampled_from([3, 2**50]),
)
@settings(max_examples=100, deadline=None)
def test_extract_features_matches_reference(width, height, rows, cols, seed, high):
    rows, cols = min(rows, height), min(cols, width)
    grid = random_grid(width, height, seed, symbols=".Y##", cell_size=7.1)
    rng = np.random.Generator(np.random.Philox(key=seed))
    cov = rng.integers(0, high, (height, width), dtype=np.int64)
    cov[rng.random((height, width)) < 0.4] = 0
    tiling = tile_regions(grid, rows, cols)
    assert extract_features(cov, tiling, grid) == ref_extract_features(cov, tiling, grid)
    cx, cy = region_centroids_m(tiling, grid)
    assert list(zip(cx.tolist(), cy.tolist())) == [
        ref_region_centroid_m(tiling, grid, region) for region in range(tiling.n_regions)
    ]


ODD_SYMBOLS = ["x", "é", "\t", " ", "h", "0", "\u00a0", "\U0001f41d"]


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_parse_errors_match_reference(data):
    """An unknown symbol, a second hive and a ragged row, each injected or
    not, at random positions and in any relative order."""
    width = data.draw(st.integers(1, 7), label="width")
    height = data.draw(st.integers(1, 7), label="height")
    rows = [
        list(data.draw(st.text(".Y#A", min_size=width, max_size=width)))
        for _ in range(height)
    ]

    def cell():
        r = data.draw(st.integers(0, height - 1))
        return r, data.draw(st.integers(0, len(rows[r]) - 1)) if rows[r] else None

    if data.draw(st.booleans(), label="hive"):
        r, c = cell()
        rows[r][c] = "H"
    faults = data.draw(st.lists(st.sampled_from(["unknown", "hive", "ragged"]), unique=True))
    for fault in faults:
        r, c = cell()
        if fault == "ragged":
            if data.draw(st.booleans(), label="shorten") and len(rows[r]) > 1:
                del rows[r][c]
            else:
                rows[r].insert(c, data.draw(st.sampled_from(".Y")))
        elif c is not None:
            rows[r][c] = "H" if fault == "hive" else data.draw(st.sampled_from(ODD_SYMBOLS))
    text = make_map(["".join(row) for row in rows], cell_size=0.3)
    got, want = outcome(parse_map, text), outcome(ref_parse_map, text)
    if want[0] == "ok":
        assert got[0] == "ok" and got[1] == want[1]
        assert got[1].cells.dtype == np.int8 and got[1].cells.flags.writeable
    else:
        assert got == want


@pytest.mark.parametrize(
    "rows",
    [
        ["..é", ".H."],
        ["..\t", ".H."],
        ["H.H", "...", "."],
        ["H..", "..", "x.H"],
        ["H..", "..x", "H"],
        ["é.H", "H.", "..."],
        ["\U0001f41d.", "H"],
        ["..", ".", "H"],
        ["Y.", "Y."],
    ],
)
def test_parse_error_precedence_matches_reference(rows):
    text = make_map(rows)
    want = outcome(ref_parse_map, text)
    assert want[0] != "ok"
    assert outcome(parse_map, text) == want


def test_unknown_symbol_columns_count_characters():
    with pytest.raises(UnknownSymbolError) as err:
        parse_map(make_map(["éé.", "..\t", ".H."]))
    assert str(err.value) == "unknown symbol 'é' at line 2, column 1"
    with pytest.raises(UnknownSymbolError) as err:
        parse_map(make_map(["...", "..\t", ".H."]))
    assert str(err.value) == "unknown symbol '\\t' at line 3, column 3"
