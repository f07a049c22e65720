import hashlib
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from beeloop import scouting
from beeloop.cli import main as cli_main
from beeloop.errors import OutOfRangeValueError
from beeloop.landscape import (
    EMPTY,
    PatchParams,
    derive_patches,
    parse_map,
    with_artificial,
)
from beeloop.scouting import (
    ScoutParams,
    build_sensing_map,
    run_scouting,
    simulate_at_checkpoints,
    write_trajectories_csv,
)

from conftest import make_map, sensing_rows, tiled_grid

FAST = ScoutParams(n_scouts=20, steps_per_hour=20)


def test_zero_hours_yields_empty_report(desk_grid, desk_patches):
    rep = run_scouting(desk_grid, desk_patches, FAST, 0.0, seed=3)
    assert rep.covered_area_fraction == 0.0
    assert rep.detected_patch_ids == frozenset()
    assert rep.coverage.sum() == 0


def test_deterministic_reports(desk_grid, desk_patches):
    a = run_scouting(desk_grid, desk_patches, FAST, 2.0, seed=11)
    b = run_scouting(desk_grid, desk_patches, FAST, 2.0, seed=11)
    assert a == b
    c = run_scouting(desk_grid, desk_patches, FAST, 2.0, seed=12)
    assert a != c


def test_certain_patch_next_to_hive_is_found():
    grid = parse_map(make_map([".....", ".....", "..HA.", ".....", "....."]))
    patches = derive_patches(grid, PatchParams(artificial_detect=1.0))
    params = ScoutParams(n_scouts=1, steps_per_hour=50, detection_radius=1.5)
    rep = run_scouting(grid, patches, params, 4.0, seed=5, collect_trajectories=True)
    assert rep.detected_patch_ids == {patches[0].id}
    assert rep.covered_area_fraction > 0.0
    # independent re-check: some recorded position lies in the sensing zone
    sensing = set(sensing_rows(build_sensing_map(grid, patches, params.detection_radius)))
    cells = {
        int(y) * grid.width + int(x)
        for x, y in rep.trajectories.reshape(-1, 2)
    }
    assert cells & sensing


def test_obstacles_never_visited(desk_grid, desk_patches):
    rep = run_scouting(desk_grid, desk_patches, ScoutParams(n_scouts=60), 9.0, seed=2)
    assert int(rep.coverage[desk_grid.obstacle_mask()].sum()) == 0


def test_monotone_in_effort_and_prefix_exact(desk_grid, desk_patches):
    params = ScoutParams(n_scouts=40)
    short = run_scouting(desk_grid, desk_patches, params, 3.0, seed=9)
    long = run_scouting(desk_grid, desk_patches, params, 6.0, seed=9)
    assert short.covered_area_fraction <= long.covered_area_fraction
    assert short.detected_patch_ids <= long.detected_patch_ids
    assert np.all(short.coverage <= long.coverage)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    checkpoints=st.lists(st.integers(0, 120) | st.sampled_from([0, 16, 40]),
                         min_size=1, max_size=6),
)
@example(seed=21, checkpoints=[40, 0, 100, 40, 0])
def test_one_walk_equals_one_checkpoint_walks(desk_grid, desk_patches, seed, checkpoints):
    """Prefix extension: the walk read at ``s`` steps is the ``s``-step walk."""
    params = ScoutParams(n_scouts=30)
    walk = simulate_at_checkpoints(
        desk_grid, desk_patches, params, checkpoints, seed, collect_trajectories=True
    )
    alone = {
        s: simulate_at_checkpoints(
            desk_grid, desk_patches, params, [s], seed, collect_trajectories=True
        )
        for s in set(checkpoints)
    }
    assert np.array_equal(walk.coverage, sum(alone[s].coverage for s in checkpoints))
    assert walk.at_checkpoint.keys() == alone.keys()
    for s, rep in alone.items():
        assert walk.at_checkpoint[s] == (rep.detected_patch_ids, rep.covered_area_fraction)
        assert np.array_equal(walk.trajectories[:, :s], rep.trajectories)
    last = alone[max(checkpoints)]
    assert walk.detected_patch_ids == last.detected_patch_ids
    assert walk.covered_area_fraction == last.covered_area_fraction
    assert walk.detected_patch_fraction == last.detected_patch_fraction


def test_walk_memory_does_not_grow_with_checkpoints(desk_grid, desk_patches):
    """One walk read at 49 checkpoints holds no coverage copy per checkpoint:
    its traced peak stays within 3 coverage arrays of a one-checkpoint walk's."""
    params = ScoutParams(n_scouts=20)

    def peak(checkpoints):
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            simulate_at_checkpoints(desk_grid, desk_patches, params, checkpoints, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak([4])  # first-call allocations are not the walk's
    many = list(range(0, 193, 4))
    assert len(many) == 49
    coverage_bytes = desk_grid.width * desk_grid.height * 8
    assert peak(many) - peak([192]) < 3 * coverage_bytes


def test_detection_soundness_against_trajectories(desk_grid, desk_patches):
    params = ScoutParams(n_scouts=30)
    rep = run_scouting(
        desk_grid, desk_patches, params, 4.0, seed=17, collect_trajectories=True
    )
    by_id = {p.id: p for p in desk_patches}
    width = desk_grid.width
    visited_cells = {
        (int(y) * width + int(x))
        for x, y in rep.trajectories.reshape(-1, 2)
    }
    offsets = [
        (dr, dc)
        for dr in range(-2, 3)
        for dc in range(-2, 3)
        if math.hypot(dr, dc) <= params.detection_radius
    ]
    for pid in rep.detected_patch_ids:
        sensed = set()
        for flat in by_id[pid].cell_members:
            r, c = divmod(flat, width)
            for dr, dc in offsets:
                rr, cc = r + dr, c + dc
                if 0 <= rr < desk_grid.height and 0 <= cc < width:
                    sensed.add(rr * width + cc)
        assert visited_cells & sensed, f"patch {pid} detected without a nearby visit"


def test_artificial_corridor_patch_raises_far_coverage():
    """Seed-averaged: a certain-detection waypoint pulls scouts outward."""
    rows = ["." * 31 for _ in range(15)]
    rows[7] = "..H" + "." * 28
    base = parse_map(make_map(rows, cell_size=100.0))
    with_patch_rows = list(rows)
    with_patch_rows[7] = with_patch_rows[7][:20] + "A" + with_patch_rows[7][21:]
    guided = parse_map(make_map(with_patch_rows, cell_size=100.0))

    params = ScoutParams(
        n_scouts=25, steps_per_hour=40, detection_radius=2.0, dwell_steps=12,
        max_range=60000.0,
    )
    pp = PatchParams(artificial_detect=1.0)
    far = (slice(None), slice(24, 31))  # rightmost columns

    def far_mean(grid, seed):
        rep = run_scouting(grid, derive_patches(grid, pp), params, 6.0, seed)
        return (rep.coverage[far] > 0).mean()

    seeds = range(1, 25)
    mean_base = float(np.mean([far_mean(base, s) for s in seeds]))
    mean_guided = float(np.mean([far_mean(guided, s) for s in seeds]))
    assert mean_guided > mean_base


@settings(max_examples=10, deadline=None)
@given(
    offsets=st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
                     min_size=2, max_size=3, unique=True),
    seed=st.integers(0, 2**64 - 1),
    pick=st.integers(0, 2**32),
)
@example(offsets=[(0, 2), (6, -3)], seed=7, pick=0)
def test_unsensed_beacon_leaves_every_walk_unchanged(desk_grid, offsets, seed, pick):
    """A beacon that renumbers the base beacons, but that no scout of the base
    walk senses, changes no walk: episode draws key a beacon by its cells."""
    hx, hy = desk_grid.hive_cell
    cells = [(hx + dx, hy + dy) for dx, dy in offsets]
    assume(all(desk_grid.cells[r, c] == EMPTY for c, r in cells))
    base = with_artificial(desk_grid, cells)
    base_patches = derive_patches(base)
    params = ScoutParams()
    walk = run_scouting(base, base_patches, params, 9.0, seed, collect_trajectories=True)

    # Candidates: empty cells before the last base beacon in scan order, each
    # tried as a one-cell patch of its own.
    last = max(p.cell_members[0] for p in base_patches if p.artificial)
    beacon = next(p for p in base_patches if p.artificial)
    singles = [replace(beacon, id=i, cell_members=(f,))
               for i, f in enumerate(np.flatnonzero(base.cells.ravel()[:last] == EMPTY).tolist())]
    keys = build_sensing_map(base, singles, params.detection_radius)
    stood = walk.coverage.ravel() != 0
    sensed = set((keys[stood[keys >> 32]] & 0xFFFFFFFF).tolist())
    unsensed = [s.cell_members[0] for s in singles if s.id not in sensed]
    assume(unsensed)
    added = unsensed[pick % len(unsensed)]

    grown = with_artificial(base, [(added % base.width, added // base.width)])
    grown_patches = derive_patches(grown)
    assume(len(grown_patches) == len(base_patches) + 1)  # not joined to a base beacon
    ids = {p.cell_members: p.id for p in grown_patches}
    assert any(ids[p.cell_members] != p.id for p in base_patches)  # renumbered
    again = run_scouting(grown, grown_patches, params, 9.0, seed, collect_trajectories=True)
    assert again.coverage.tobytes() == walk.coverage.tobytes()
    assert again.trajectories.tobytes() == walk.trajectories.tobytes()

    def members(rep, patches):
        return {patches[i].cell_members for i in rep.detected_patch_ids}

    assert members(again, grown_patches) == members(walk, base_patches)


def test_scout_params_validation():
    with pytest.raises(ValueError):
        ScoutParams(n_scouts=0)
    with pytest.raises(ValueError):
        ScoutParams(turn_sigma=4.0)
    with pytest.raises(ValueError):
        ScoutParams(step_length=0.0)


@pytest.mark.parametrize("name, value", [
    ("bias_sigma", math.inf), ("bias_sigma", 1e308), ("bias_sigma", 4.0), ("bias_sigma", 0.0),
    ("dwell_steps", 2**63), ("dwell_steps", 99999999999999999999),
])
def test_scout_params_reject_unbounded_bias_and_dwell(name, value):
    with pytest.raises(ValueError):
        ScoutParams(**{name: value})


def test_largest_bias_and_dwell_walk(desk_grid, desk_patches):
    """The bounds themselves are accepted, and attracted scouts walk on them."""
    params = ScoutParams(n_scouts=20, bias_sigma=math.pi, dwell_steps=2**63 - 1)
    rep = simulate_at_checkpoints(desk_grid, desk_patches, params, [60], seed=1,
                                  collect_trajectories=True)
    assert rep.detected_patch_ids
    assert np.isfinite(rep.trajectories).all()


def test_negative_hours_rejected(desk_grid, desk_patches):
    with pytest.raises(ValueError):
        run_scouting(desk_grid, desk_patches, FAST, -1.0, seed=1)


# Bit-exact pins. Each digest covers the walk at each checkpoint, in order:
# its coverage bytes, its sorted detected ids and its trajectory bytes. By
# prefix extension that is the one-checkpoint walk of that length. They were
# recorded from the per-scout reference walk; a vectorized walk must
# reproduce them byte for byte, except the "beacons" ones, which hold the
# walk with each beacon's episode draws keyed by its smallest member cell.
PIN_CHECKPOINTS = [0, 50, 120, 216]
BEACON_CELLS = [(40, 32), (41, 32), (28, 32), (36, 36), (42, 34), (30, 27)]


def walk_digest(grid, patches, params, seed, checkpoints=PIN_CHECKPOINTS):
    h = hashlib.sha256()
    for s in checkpoints:
        rep = simulate_at_checkpoints(grid, patches, params, [s], seed, collect_trajectories=True)
        h.update(rep.coverage.tobytes())
        h.update(repr(sorted(rep.detected_patch_ids)).encode())
        h.update(np.ascontiguousarray(rep.trajectories).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def pin_worlds(desk_grid, desk_patches):
    tiled = tiled_grid(desk_grid)
    beacons = with_artificial(desk_grid, BEACON_CELLS)
    return {
        "desk1": (desk_grid, desk_patches, ScoutParams(n_scouts=1)),
        "desk150": (desk_grid, desk_patches, ScoutParams()),
        "desk1500": (desk_grid, desk_patches, ScoutParams(n_scouts=1500)),
        "tiled150": (tiled, derive_patches(tiled), ScoutParams()),
        "beacons": (
            beacons,
            derive_patches(beacons),
            ScoutParams(detection_radius=3.5, dwell_steps=3),
        ),
    }


PINNED_WALKS = {
    ("beacons", 1): "14917c62d7f4be27bee216ccf592d62c8c2416f770f3f81def28280091cc1229",
    ("beacons", 7): "b578de21b890dc8385a691e44bc3de24d6cfb69e2187a2c18833027a3002de4f",
    ("beacons", 42): "f54a17985cf973534a23cfd09e0bdf410d439d48bb16d102cc900def48f6f67b",
    ("beacons", 123456789): "aba9c517edc7bc39187a13a5d7e46cabb9c4bf9cda1c374137ba8ea9a449cf40",
    ("beacons", 2**64 - 1): "95c020230988f3b8a57d489295219c9a3e45183185b4470a6878a386ec298523",
    ("desk1", 1): "a11a4d251bd58ac01a92cedca08b778d384ee0a9558e25aa67b9a69435ce3a9b",
    ("desk1", 7): "cc994869d444b417bd360de506562e810ca99ac5055d9352b85e6e92bcb23f8d",
    ("desk1", 42): "9227a45ae2d823b0c9ca981373808703828756ba46672111b1402ddd466628fa",
    ("desk1", 123456789): "9ee7b10830413c7b0472d6ec433cef9e422937e184051950bce5913258c379e2",
    ("desk1", 2**64 - 1): "77c790ca2a3f04f2f8c2b699ec7e9ed8d2eea4b6c7d150188984b1a18801d7d6",
    ("desk150", 1): "ba09509bf3e2aab7340e1ec2bb87487768480187c3adaa889b9fb4d4a31bb0e4",
    ("desk150", 7): "94c68ba08c4504906fda09975435b540203b48299776842e48460890b4a40d9d",
    ("desk150", 42): "a0d7fae9bb28379077d34476a6cab17a91ab36c8f7359849724f4136fe2a478a",
    ("desk150", 123456789): "4c7cf2652c23208c7d277c601912edc6dc09412523b56dd1805ede5f3a7a46fd",
    ("desk150", 2**64 - 1): "ffe23178bd00ff48b5e7316473673c745b768b9eaaee63040de9a55d94bddfd6",
    ("desk1500", 1): "ce00e3dc1f797e269ab01cb0601db691f9668619d7503a25c936cdd956595a44",
    ("desk1500", 7): "3fce73a30564fab1de86d44d59894f5a78b2f6930af36870b1246b29bcd64e19",
    ("desk1500", 42): "7fc11605040f58b26ff6fcc3a44ed6fb4fa0a91638dde9632e770742ba5979dc",
    ("desk1500", 123456789): "bc7add7acd2ac094603374f87d942db145b61cc08c62aa50562d29bac92c0890",
    ("desk1500", 2**64 - 1): "ac9f64f09db7b1bedfd493b263483bffff8fee864499c24b8343caaeea45e96a",
    ("tiled150", 1): "9e2685411fb068ca7ce6d4aab3ef68c761ee290a851c29ebbd7e6a0635dd06f7",
    ("tiled150", 7): "8842c94139946a6aed0b844c3d8d6a9d0ae49cc4e7dcde797c633b1c073f2f21",
    ("tiled150", 42): "bb259c2f4f956ee62e9f973cc356f145ceec48ec9698aa62c9250b20cd5aff4e",
    ("tiled150", 123456789): "502a179ec461c981778867019ebc92a0f7748c247aa5805b1ba93da17c67e6e4",
    ("tiled150", 2**64 - 1): "e595657f9dd1632c2020f39fcb849897ae3a08e49f5510c9e71298d6ef57903f",
}


@pytest.mark.parametrize("world,seed", sorted(PINNED_WALKS))
def test_walk_bytes_pinned(pin_worlds, world, seed):
    grid, patches, params = pin_worlds[world]
    assert walk_digest(grid, patches, params, seed) == PINNED_WALKS[world, seed]


# Paths the worlds above barely reach, pinned on the desk map. "leash": a
# 500 m leash (4 cells) turns scouts home thousands of times. "long_steps":
# 1.7-cell steps under a 300 m leash cross cells every step and, at seed 1,
# use every retry direction and the reflection. "wide_rows": at radius 6 the
# sensing rows hold up to 9 ids, and scouts exhaust their retries often.
PATH_WORLDS = {
    "leash": ScoutParams(max_range=500.0),
    "long_steps": ScoutParams(n_scouts=2000, max_range=300.0, step_length=1.7),
    "wide_rows": ScoutParams(n_scouts=500, detection_radius=6.0, dwell_steps=4),
}
PINNED_PATHS = {
    ("leash", 1): "e252a8a51733f15be189a7e639c32f16b4838e93bd3219310854f96303474aeb",
    ("leash", 42): "1e9f4c78a9fcdc703322ba16550e29e15d56e84efe5becfa8e7ffdd33fce778f",
    ("long_steps", 1): "ee8a36720b5c1faea73d9c39da1d951bbb9ad35e858569ef95a344bb29dc7352",
    ("long_steps", 42): "ad8012cb109d3d2412e3ff73a031a68e75c0e08d4f5bc760b374ae3016c666b4",
    ("wide_rows", 1): "b88a0f47f3f982e6a0873301a2a15618e2cfe7050df05e0d22fa6c822af71fbe",
    ("wide_rows", 42): "342337d1d2e7bf8d691b485d78538f03a10ecd16acf2d073a26e37bdd17feb69",
}


@pytest.mark.parametrize("world,seed", sorted(PINNED_PATHS))
def test_walk_paths_pinned(desk_grid, desk_patches, world, seed):
    params = PATH_WORLDS[world]
    digest = walk_digest(desk_grid, desk_patches, params, seed, [0, 50, 216])
    assert digest == PINNED_PATHS[world, seed]


# One walk of the 10 000-bee desk colony, one scout per bee, read at
# PIN_CHECKPOINTS: its coverage bytes and ``at_checkpoint``. Trajectories are
# left out (35 MB a walk). Recorded before the step loop's leash, episode
# filter and retries were rewritten.
PINNED_COLONY = {
    1: "dee1dc4248c424ad303b9730756280d8deedd45724514fda5e5b963ee1200908",
    42: "6e6ab1dd736f87d748ef69d5158f69cae841d777c044ddebe6f60e7e8903987d",
}


@pytest.mark.parametrize("seed", sorted(PINNED_COLONY))
def test_colony_walk_pinned(desk_grid, desk_patches, seed):
    params = ScoutParams(n_scouts=10_000)
    rep = simulate_at_checkpoints(desk_grid, desk_patches, params, PIN_CHECKPOINTS, seed)
    h = hashlib.sha256(rep.coverage.tobytes())
    h.update(repr(sorted((s, sorted(ids), f) for s, (ids, f) in rep.at_checkpoint.items()))
             .encode())
    assert h.hexdigest() == PINNED_COLONY[seed]


def test_checkpoint_zero_only_is_empty(desk_grid, desk_patches):
    rep = simulate_at_checkpoints(
        desk_grid, desk_patches, FAST, [0], seed=3, collect_trajectories=True
    )
    assert rep.coverage.shape == (desk_grid.height, desk_grid.width)
    assert not rep.coverage.any()
    assert rep.detected_patch_ids == frozenset()
    assert rep.covered_area_fraction == 0.0
    assert rep.at_checkpoint == {0: (frozenset(), 0.0)}
    assert rep.trajectories.shape == (FAST.n_scouts, 0, 2)


def test_step_longer_than_the_way_to_the_farthest_corner_rejected(desk_grid, desk_patches):
    # From the hive cell's centre (36.5, 32.5) the farthest desk corner is (0, 0).
    reach = math.hypot(36.5, 32.5)
    params = ScoutParams(n_scouts=5, step_length=reach)
    simulate_at_checkpoints(desk_grid, desk_patches, params, [0, 20], seed=1)
    longer = ScoutParams(n_scouts=5, step_length=math.nextafter(reach, math.inf))
    with pytest.raises(OutOfRangeValueError):
        simulate_at_checkpoints(desk_grid, desk_patches, longer, [0], seed=1)
    # A lone hive cell's corners are 0.71 cells away: the default step is too long.
    lone = parse_map(make_map(["H"]))
    with pytest.raises(OutOfRangeValueError):
        simulate_at_checkpoints(lone, [], ScoutParams(), [0], seed=1)
    simulate_at_checkpoints(lone, [], ScoutParams(step_length=0.7), [0, 5], seed=1)


def test_scout_reflected_in_place_opens_no_new_episode():
    """A walled-in scout stays in its cell: one draw per patch, at step 1."""
    grid = parse_map(make_map([".....", ".###.", ".#H#.", ".###.", "..A.."]))
    patches = derive_patches(grid, PatchParams(artificial_detect=0.5))
    params = ScoutParams(n_scouts=1, detection_radius=2.5)
    found = []
    for seed in range(20):
        rep = simulate_at_checkpoints(grid, patches, params, [1, 200], seed)
        first, _ = rep.at_checkpoint[1]
        assert rep.detected_patch_ids == first
        assert rep.coverage[2, 2] == 1 + 200  # summed over both checkpoints
        found.append(bool(first))
    # a fresh draw per step would all but certainly detect it within 200 steps
    assert any(found) and not all(found)


# Leashes whose square is normal, underflows to a subnormal or to 0,
# overflows, or is inf.
LEASHES = [48.0, 1.0, 2.0**-500, 2.0**-512, 2.0**-530, 5e-324, 2.0**500, 2.0**512,
           2.0**600, 1.7e308, math.inf]
_offset = st.floats(-1e300, 1e300, allow_subnormal=True)


@settings(max_examples=300, deadline=None)
@given(
    leash=st.sampled_from(LEASHES) | st.floats(5e-324, 1.7e308),
    angles=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=1, max_size=8),
    offsets=st.lists(st.tuples(_offset, _offset), max_size=8),
)
@example(leash=48.0, angles=[0.0, math.pi / 4, 1.0], offsets=[(5e-324, -5e-324)])
def test_leash_rule_equals_hypot(leash, angles, offsets):
    """The squared-distance leash decides as ``np.hypot(dx, dy) > leash``: on
    the circle and one ulp either side, at subnormal offsets and at random
    finite ones."""
    a = np.array(angles)
    with np.errstate(all="ignore"):
        cx, cy = leash * np.cos(a), leash * np.sin(a)
    dx, dy = [cx, np.array([5e-324, -1e-310, 2.0**-1060, 0.0])], [cy, np.full(4, 1e-320)]
    for toward in (-math.inf, math.inf):
        dx += [np.nextafter(cx, toward), cx, np.nextafter(cx, toward)]
        dy += [cy, np.nextafter(cy, toward), np.nextafter(cy, -toward)]
    dx.append(np.array([o[0] for o in offsets]))
    dy.append(np.array([o[1] for o in offsets]))
    dx, dy = np.concatenate(dx), np.concatenate(dy)
    keep = np.isfinite(dx) & np.isfinite(dy)
    dx, dy = dx[keep], dy[keep]
    with np.errstate(over="ignore", under="ignore"):
        want = np.hypot(dx, dy) > leash
        got = scouting._beyond_leash(dx, dy, leash)
    assert np.array_equal(got, want)


def blocked_reference(px, py, obstacle):
    """Indices of the points off the grid or in an obstacle cell, by bounds tests."""
    height, width = obstacle.shape
    inside = (px >= 0) & (px < width) & (py >= 0) & (py < height)
    ii = inside.nonzero()[0]
    cell = py[ii].astype(np.int64) * width + px[ii].astype(np.int64)
    inside[ii[obstacle.ravel()[cell]]] = False
    return (~inside).nonzero()[0]


def sequential_retry(x, y, words, step_len, obstacle):
    """The four-round retry loop the one-pass retry must match bit for bit:
    each round turns the scouts still blocked by their next word and tests
    them again; those blocked after the last round turn by pi and stay."""
    heading, nx, ny = np.empty(x.size), x.copy(), y.copy()
    idx = np.arange(x.size)
    for attempt in range(words.shape[1]):
        if not idx.size:
            break
        turn = (words[idx, attempt] >> np.uint64(11)) * 2.0**-53 * (2.0 * math.pi)
        heading[idx] = turn
        px = x[idx] + step_len * np.cos(turn)
        py = y[idx] + step_len * np.sin(turn)
        nx[idx], ny[idx] = px, py
        idx = idx[blocked_reference(px, py, obstacle)]
    heading[idx] += math.pi
    nx[idx], ny[idx] = x[idx], y[idx]
    return heading, nx, ny


BOX_ROWS = [".....", ".###.", ".#H#.", ".###.", "..A.."]


def retry_word(angle: float) -> int:
    """A raw word whose retry turn is ``angle`` to within 2**-50 radians."""
    return int(angle / (2.0 * math.pi) * 2.0**53) << 11


def assert_retry_matches(x, y, words, step_len, obstacle):
    walls = np.pad(obstacle, 1, constant_values=True)
    got = scouting._retry(x, y, words, step_len, walls)
    want = sequential_retry(x, y, words, step_len, obstacle)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    return got


def test_retry_boxed_in_and_third_retry_open():
    """Scout 0 is boxed in on all sides: it stays and faces its fourth retry
    turned by pi. Scout 1, in the top-left corner, is blocked west and north
    (off the grid) and takes its third retry, east."""
    obstacle = parse_map(make_map(BOX_ROWS)).obstacle_mask()
    x, y = np.array([2.5, 0.5]), np.array([2.5, 0.5])
    angles = [math.pi, 1.5 * math.pi, 0.0, 0.5 * math.pi]
    words = np.array([[retry_word(a) for a in angles]] * 2, dtype=np.uint64)
    heading, nx, ny = assert_retry_matches(x, y, words, 0.8, obstacle)
    assert (nx[0], ny[0]) == (2.5, 2.5)
    assert heading[0] == retry_word(0.5 * math.pi) / 2.0**64 * (2.0 * math.pi) + math.pi
    assert heading[1] == 0.0 and (nx[1], ny[1]) == (1.3, 0.5)


@settings(max_examples=200, deadline=None)
@given(
    cells=st.lists(st.tuples(st.floats(0.0, 7.0, exclude_max=True),
                             st.floats(0.0, 5.0, exclude_max=True)), min_size=1, max_size=12),
    words=st.lists(st.integers(0, 2**64 - 1), min_size=48, max_size=48),
    step_len=st.floats(0.05, 3.0),
)
def test_one_pass_retry_matches_sequential_rounds(cells, words, step_len):
    obstacle = parse_map(make_map(EDGE_ROWS)).obstacle_mask()
    x, y = (np.array(c) for c in zip(*cells))
    raw = np.array(words[: 4 * x.size], dtype=np.uint64).reshape(-1, 4)
    assert_retry_matches(x, y, raw, step_len, obstacle)


def test_blocked_mask_matches_bounds_tests():
    """The padded mask agrees with bounds tests at the grid's edges and far off it."""
    obstacle = parse_map(make_map(EDGE_ROWS)).obstacle_mask()
    height, width = obstacle.shape
    edges = [-1e300, -1.0, -2.0**-60, -0.0, 0.0, 2.0**-1074, 1.5, 3.5,
             math.nextafter(height, 0.0), height, math.nextafter(width, 0.0), width, 1e300]
    px, py = (a.ravel() for a in np.meshgrid(edges, edges))
    walls = np.pad(obstacle, 1, constant_values=True)
    got = scouting._blocked(px, py, walls).nonzero()[0]
    assert np.array_equal(got, blocked_reference(px, py, obstacle))


def brute_fresh(rows, flat, prev_flat):
    """(scout, id) of each id in a scout's current row missing from its previous one."""
    return [(i, j) for i, (c, p) in enumerate(zip(flat, prev_flat))
            for j in sorted(set(rows.get(c, [])) - set(rows.get(p, [])))]


def fresh_pairs(keys, n_cells, flat, prev_flat):
    rows = scouting._Rows(keys, n_cells)
    flat, prev_flat = np.array(flat), np.array(prev_flat)
    scout, pid = rows.fresh(flat, prev_flat)
    return list(zip(scout.tolist(), pid.tolist()))


def test_signature_change_decides_new_episodes():
    """Cells 0 and 1 hold the single id 5, cell 2 ids 3 and 5, cell 3 id 7
    and cell 4 none; cell 5 is the empty row before step 1. A move between
    the two one-id rows of 5 opens no episode; a move from the two-id row to
    the one-id row of 7 opens one."""
    keys = np.array([0 << 32 | 5, 1 << 32 | 5, 2 << 32 | 3, 2 << 32 | 5, 3 << 32 | 7])
    assert fresh_pairs(keys, 5, [1], [0]) == []
    assert fresh_pairs(keys, 5, [3], [2]) == [(0, 7)]
    assert fresh_pairs(keys, 5, [1, 3, 2, 4, 0, 2], [0, 2, 1, 3, 5, 2]) == [
        (1, 7), (2, 3), (4, 5),
    ]


def test_empty_rows_share_one_signature():
    """On the map of ``test_signature_change_decides_new_episodes``, the
    empty cell 4 and the empty row 5 before step 1 share a signature, so a
    scout moving between two empty rows skips the row gathers."""
    keys = np.array([0 << 32 | 5, 1 << 32 | 5, 2 << 32 | 3, 2 << 32 | 5, 3 << 32 | 7])
    signature = scouting._Rows(keys, 5).signature
    assert signature[4] == signature[5] == -1
    assert len(set(signature[[0, 2, 3, 4]].tolist())) == 4


@settings(max_examples=100, deadline=None)
@given(
    entries=st.sets(st.tuples(st.integers(0, 7), st.integers(0, 4)), max_size=25),
    moves=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=20),
)
def test_fresh_pairs_match_row_difference(entries, moves):
    keys = np.array(sorted(c << 32 | j for c, j in entries), dtype=np.int64)
    flat, prev_flat = zip(*moves)
    assert fresh_pairs(keys, 8, flat, prev_flat) == brute_fresh(sensing_rows(keys), flat,
                                                                prev_flat)


@pytest.mark.parametrize(
    "rows, n_cells, moves",
    [
        # A 12-id row; cell 1 shares three of its ids, cell 2 none.
        ({0: list(range(0, 24, 2)), 1: [4, 10, 11, 22, 30], 2: [7]}, 3,
         [(0, 1), (1, 0), (0, 3), (2, 0), (0, 2), (0, 0)]),
        # Ids up to 2**31 - 1; cells 0 and 2 hold the same single id.
        ({0: [2**31 - 1], 1: [0, 2**31 - 2, 2**31 - 1], 2: [2**31 - 1], 3: [2**31 - 2]}, 4,
         [(1, 0), (0, 1), (2, 0), (3, 1), (1, 4), (3, 2)]),
        # No keys at all.
        ({}, 4, [(0, 4), (1, 0), (4, 2)]),
    ],
    ids=["wide_row", "int32_ids", "empty"],
)
def test_fresh_pairs_on_wide_rows_large_ids_and_no_keys(rows, n_cells, moves):
    """The cases the drawn maps above miss: rows far wider than 5 ids, ids
    at the top of the int32 range, and a map with no keys, which gives no
    pairs."""
    keys = np.array(sorted(c << 32 | j for c, ids in rows.items() for j in ids),
                    dtype=np.int64)
    flat, prev_flat = zip(*moves)
    want = brute_fresh(rows, flat, prev_flat)
    assert fresh_pairs(keys, n_cells, flat, prev_flat) == want
    assert want or not rows


EDGE_ROWS = ["Y....YY", "Y..#...", "...H..A", "A......", "YY...YA"]


def brute_sensing_rows(grid, patches, radius):
    """Every in-grid cell within ``radius`` of any member cell, by full scan."""
    rows = {}
    for p in patches:
        for flat in p.cell_members:
            r, c = divmod(flat, grid.width)
            for rr in range(grid.height):
                for cc in range(grid.width):
                    if math.hypot(rr - r, cc - c) <= radius:
                        rows.setdefault(rr * grid.width + cc, set()).add(p.id)
    return rows


@pytest.mark.parametrize("radius", [0.5, 1.0, 1.8, 3.5])
def test_sensing_map_matches_brute_force(radius):
    grid = parse_map(make_map(EDGE_ROWS))
    patches = derive_patches(grid)
    keys = build_sensing_map(grid, patches, radius)
    assert keys.dtype == np.int64
    assert np.all(np.diff(keys) > 0)
    want = brute_sensing_rows(grid, patches, radius)
    assert sensing_rows(keys) == {cell: sorted(ids) for cell, ids in want.items()}


def test_huge_detection_radius_senses_every_patch_from_every_cell(tmp_path):
    """The offsets stop at the grid's larger side, so a 1e300 radius finishes."""
    (tmp_path / "edge.map").write_text(make_map(EDGE_ROWS), encoding="utf-8")
    config = tmp_path / "edge.conf"
    config.write_text(
        "[scenario]\nmap = edge.map\n\n[scouting]\nn_scouts = 5\ndetection_radius = 1e300\n"
        "\n[foraging]\nseason_start = 150\nseason_end = 160\n",
        encoding="utf-8",
    )
    assert cli_main(["baseline", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "season.csv").is_file()
    grid = parse_map(make_map(EDGE_ROWS))
    patches = derive_patches(grid)
    rows = sensing_rows(build_sensing_map(grid, patches, 1e300))
    every = [p.id for p in patches]
    for cell in range(grid.width * grid.height):
        assert rows.get(cell) == every, f"cell {cell}"


def test_no_patches_gives_empty_sensing_map_and_no_detections():
    grid = parse_map(make_map(["....#", ".....", "..H..", ".....", "#...."]))
    keys = build_sensing_map(grid, [], 3.5)
    assert keys.size == 0
    assert keys.dtype == np.int64
    rep = simulate_at_checkpoints(grid, [], FAST, [0, 5, 40], seed=9)
    assert rep.detected_patch_ids == frozenset()
    assert rep.detected_patch_fraction == 0.0
    assert all(found == frozenset() for found, _ in rep.at_checkpoint.values())


@pytest.mark.parametrize("radius", [0.5, 1.0, 1.8, 3.5, 6.0])
@pytest.mark.parametrize("world", ["edge", "desk"])
def test_chunked_sensing_map_equals_one_chunk(monkeypatch, desk_grid, desk_patches, world, radius):
    if world == "desk":
        grid, patches = desk_grid, desk_patches
    else:
        grid = parse_map(make_map(EDGE_ROWS))
        patches = derive_patches(grid)
    whole = build_sensing_map(grid, patches, radius)
    # At most five (member, offset) entries per chunk: one member per chunk
    # from radius 1 up, so every patch of more than one cell is split.
    monkeypatch.setattr(scouting, "_SENSING_CHUNK", 5)
    chunked = build_sensing_map(grid, patches, radius)
    assert chunked.tolist() == whole.tolist()
    assert chunked.dtype == whole.dtype


def test_sensing_map_memory_follows_rows_not_members_times_offsets(desk_grid, desk_patches):
    """Radius 30 on desk is 1 470 member cells x 2 821 offsets. Expanded all
    at once they peaked at 161 MiB of traced allocations; the chunked build
    stays under a quarter of that."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        build_sensing_map(desk_grid, desk_patches, 30.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 161 * 2**20 / 4


def test_large_map_sensing_build_stays_within_its_chunk_budget(desk_grid):
    """The 4x4 tiled desk has 23 520 crop member cells x 9 offsets at radius
    1.8, 211 680 entries. Expanded in one chunk they peaked at 10.28 MiB of
    traced allocations; chunks of 2**15 entries keep it near the 0.6 MiB of
    distinct keys plus a few 256 KiB temporaries."""
    grid = tiled_grid(desk_grid)
    patches = derive_patches(grid)
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        build_sensing_map(grid, patches, 1.8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def ref_write_trajectories_csv(path, trajectories):
    """The per-row writer that first defined the ``paths.csv`` bytes."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("scout_id,step,x,y\n")
        n, steps, _ = trajectories.shape
        for i in range(n):
            for t in range(steps):
                x, y = trajectories[i, t]
                fh.write(f"{i},{t + 1},{x!r},{y!r}\n")


def walk_paths(grid, patches, params, seed, checkpoints):
    """The walk's paths up to each checkpoint, sliced from one walk."""
    rep = simulate_at_checkpoints(
        grid, patches, params, checkpoints, seed, collect_trajectories=True
    )
    return [rep.trajectories[:, :s] for s in checkpoints]


@pytest.fixture(scope="module")
def path_cases(desk_grid, desk_patches):
    """Walks as ``paths.csv`` gets them. A prefix slice is a view of the
    whole walk, so it is not contiguous; the reflection walk's scouts exhaust
    their retries and stay in place."""
    prefix, desk = walk_paths(desk_grid, desk_patches, ScoutParams(), 42, [50, 216])
    (one,) = walk_paths(desk_grid, desk_patches, ScoutParams(n_scouts=1), 7, [216])
    (empty,) = walk_paths(desk_grid, desk_patches, ScoutParams(), 42, [0])
    (reflect,) = walk_paths(desk_grid, desk_patches, PATH_WORLDS["long_steps"], 1, [216])
    return {"desk150_seed42": desk, "prefix_view": prefix, "one_scout": one,
            "zero_steps": empty, "reflections": reflect}


@pytest.mark.parametrize(
    "case", ["desk150_seed42", "prefix_view", "one_scout", "zero_steps", "reflections"]
)
def test_paths_csv_bytes_match_reference(tmp_path, path_cases, case):
    paths = path_cases[case]
    if case == "prefix_view":
        assert not paths.flags.c_contiguous
    if case == "reflections":
        assert (paths[:, 1:] == paths[:, :-1]).all(axis=2).any()
    write_trajectories_csv(tmp_path / "paths.csv", paths)
    ref_write_trajectories_csv(tmp_path / "ref.csv", paths)
    got = (tmp_path / "paths.csv").read_bytes()
    assert got == (tmp_path / "ref.csv").read_bytes()
    if case == "zero_steps":
        assert got == b"scout_id,step,x,y\n"


def test_paths_csv_cells_round_trip_exactly(tmp_path, path_cases):
    paths = path_cases["desk150_seed42"]
    write_trajectories_csv(tmp_path / "paths.csv", paths)
    header, *rows = (tmp_path / "paths.csv").read_text(encoding="utf-8").splitlines()
    assert header == "scout_id,step,x,y"
    n, steps, _ = paths.shape
    assert len(rows) == n * steps
    cell = re.compile(r"np\.float64\((.+)\)")
    for k, row in enumerate(rows):
        i, t, *xy = row.split(",")
        assert (int(i), int(t) - 1) == divmod(k, steps) and len(xy) == 2
        for text, want in zip(xy, paths[int(i), int(t) - 1].tolist()):
            match = cell.fullmatch(text)
            assert match, text
            assert np.float64(float(match[1])).tobytes() == np.float64(want).tobytes()


def test_steps_per_hour_bounded_by_int32_day():
    """A 24 h day of steps must fit the int32 first-detection steps."""
    assert ScoutParams(steps_per_hour=(2**31 - 1) // 24).steps_per_hour == 89_478_485
    for value in (89_478_486, 10**400):
        with pytest.raises(ValueError):
            ScoutParams(steps_per_hour=value)


def test_n_scouts_bounded():
    """Constructs only: no walk runs at these counts."""
    assert ScoutParams(n_scouts=100_000).n_scouts == 100_000
    for value in (100_001, 10**400):
        with pytest.raises(ValueError):
            ScoutParams(n_scouts=value)
