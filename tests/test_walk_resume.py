"""A walk resumed from another walk's log equals the full recompute.

The full path, ``run_season`` or ``simulate_at_checkpoints`` without a log, is
the reference throughout: a resumed candidate must give the same bytes in
every season field and every per-checkpoint report.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beeloop.cli import default_config_path
from beeloop.config import load_scenario, weather_for
from beeloop.foraging import ColonyParams, run_season
from beeloop.landscape import (
    CROP as CROP_CELL,
    EMPTY,
    OBSTACLE,
    CellGrid,
    PatchParams,
    artificial_nectar,
    artificial_patches,
    derive_patches,
    load_map,
    with_artificial,
)
from beeloop.scouting import ScoutParams, WalkLog, build_sensing_map, simulate_at_checkpoints
from beeloop.weather import EnvControl, synth_weather

from conftest import sensing_rows

DESK = load_map(default_config_path().parent / "field_desk.map")
CROP = [p for p in derive_patches(DESK) if not p.artificial]
WEATHER = synth_weather(1)
COLONY = ColonyParams(season=(150, 175))
CADENCE = 5
SCOUTS = ScoutParams(n_scouts=30)
CONTROLS = {
    "mild": EnvControl(1.5, 2.0, COLONY.season),
    "strong": EnvControl(3.0, 5.0, COLONY.season),
}
HIVE_X, HIVE_Y = DESK.hive_cell
# Empty cells from next to the hive out to where few scouts reach.
POOL = [
    (c, r)
    for r in range(HIVE_Y - 14, HIVE_Y + 15)
    for c in range(HIVE_X - 14, HIVE_X + 15)
    if DESK.cells[r, c] == EMPTY
]


def landscape(cells):
    grid = with_artificial(DESK, cells)
    return grid, CROP + artificial_patches(grid, len(CROP), artificial_nectar(CROP, PatchParams()))


def season(cells, ctrl, seed, params=SCOUTS, log=None):
    grid, patches = landscape(cells)
    cap = 9.0 if ctrl is None else 16.0
    return run_season(
        grid, patches, WEATHER, ctrl, COLONY, CADENCE, params, seed, cap, log=log
    )


def pair_rule_resume_step(base_log, base_cells, cells, radius=SCOUTS.detection_radius):
    """The resume step a walk on ``cells`` takes from ``base_log``'s walk.

    Reference rule: the last state ``base_log`` saved before the first step at
    which one of its scouts stands on a cell whose (cell, beacon key) pairs
    differ between the two landscapes, or hold a beacon key whose patch
    differs. A beacon's key is its smallest member cell, and its patch is
    compared with the id set to 0, so a renumbered beacon is unchanged. A
    rule that resumes earlier is still correct, only slower, so the
    output-equality checks alone cannot catch it.
    """

    def artificial(beacons):
        grid, patches = landscape(beacons)
        art = {p.id: p for p in patches if p.artificial}
        rows = sensing_rows(build_sensing_map(grid, list(art.values()), radius))
        pairs = {(c, art[j].cell_members[0]) for c, ids in rows.items() for j in ids}
        return {p.cell_members[0]: replace(p, id=0) for p in art.values()}, pairs

    old, before = artificial(base_cells)
    new, after = artificial(cells)
    moved = {j for j in old.keys() | new.keys() if old.get(j) != new.get(j)}
    changed = np.zeros(DESK.width * DESK.height, dtype=bool)
    changed[[c for c, j in before ^ after] + [c for c, j in before | after if j in moved]] = True
    touched = np.flatnonzero(changed[base_log.cells].any(axis=1))
    first = int(touched[0]) + 1 if touched.size else len(base_log.cells) + 1
    return max(s for s in base_log.states if s < first)


_cells = st.lists(st.sampled_from(POOL), max_size=4, unique=True)
# (incumbent control, candidate control); the loop's refit can also drop it.
_controls = st.sampled_from(
    [(None, "mild"), ("mild", "mild"), ("mild", "strong"), ("strong", None), (None, None)]
)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    inc_cells=_cells,
    new_cells=_cells,
    extend=st.booleans(),
    controls=_controls,
)
def test_resumed_season_equals_full_recompute(seed, inc_cells, new_cells, extend, controls):
    inc_ctrl, cand_ctrl = (CONTROLS.get(c) for c in controls)
    # The loop only adds beacons; dropping and renumbering them must hold too.
    cand_cells = inc_cells + [c for c in new_cells if c not in inc_cells] if extend else new_cells

    inc_log = WalkLog()
    inc = season(inc_cells, inc_ctrl, seed, log=inc_log)
    assert inc == season(inc_cells, inc_ctrl, seed)

    cand_log = WalkLog(inc_log)
    assert season(cand_cells, cand_ctrl, seed, log=cand_log) == season(cand_cells, cand_ctrl, seed)
    assert cand_log.resumed_at == pair_rule_resume_step(inc_log, inc_cells, cand_cells)
    # The candidate's log carries the incumbent's prefix; a walk resumed from
    # it must hold as well.
    again = WalkLog(cand_log)
    assert season(inc_cells, inc_ctrl, seed, log=again) == inc
    assert again.resumed_at == pair_rule_resume_step(cand_log, cand_cells, inc_cells)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    inc_cells=_cells,
    cand_cells=_cells,
    inc_checkpoints=st.lists(st.integers(0, 300), min_size=1, max_size=4),
    checkpoints=st.lists(st.integers(0, 400), min_size=1, max_size=6),
)
def test_resumed_reports_equal_full_recompute(
    seed, inc_cells, cand_cells, inc_checkpoints, checkpoints
):
    """Every checkpoint, before, at or after the resume step, is the full walk's."""
    inc_log = WalkLog()
    simulate_at_checkpoints(*landscape(inc_cells), SCOUTS, inc_checkpoints, seed, log=inc_log)
    grid, patches = landscape(cand_cells)
    log = WalkLog(inc_log)
    resumed = simulate_at_checkpoints(grid, patches, SCOUTS, checkpoints, seed, log=log)
    assert resumed == simulate_at_checkpoints(grid, patches, SCOUTS, checkpoints, seed)
    assert 0 <= log.resumed_at <= len(inc_log.cells)


def test_walk_log_leaves_reports_unchanged():
    grid, patches = landscape([(40, 32), (30, 27)])
    checkpoints = [0, 7, 16, 100, 217]
    log = WalkLog()
    logged = simulate_at_checkpoints(grid, patches, SCOUTS, checkpoints, 5, log=log)
    assert logged == simulate_at_checkpoints(grid, patches, SCOUTS, checkpoints, 5)
    assert log.cells.shape == (217, SCOUTS.n_scouts)
    assert log.cells.dtype == np.int32
    assert sorted(log.states) == [0, *range(16, 217, 16), 217]


@settings(max_examples=25, deadline=None)
@given(
    inc_cells=st.lists(st.sampled_from(POOL), max_size=6, unique=True),
    cand_cells=st.lists(st.sampled_from(POOL), max_size=6, unique=True),
    radius=st.sampled_from([0.5, 1.0, 1.8, 3.5, 6.0]),
)
def test_resumed_sensing_rows_equal_full_build(inc_cells, cand_cells, radius):
    """Independent beacon sets: beacons are added, dropped and renumbered."""
    params = ScoutParams(n_scouts=30, detection_radius=radius)
    inc_log = WalkLog()
    simulate_at_checkpoints(*landscape(inc_cells), params, [20], 1, log=inc_log)
    grid, patches = landscape(cand_cells)
    log = WalkLog(inc_log)
    simulate_at_checkpoints(grid, patches, params, [20], 1, log=log)
    full = build_sensing_map(grid, patches, radius)
    assert log.rows.tolist() == full.tolist()
    assert log.rows.dtype == full.dtype


def final_step(log):
    return max(log.states)


def test_beacon_no_scout_can_sense_resumes_at_the_final_step():
    # A 500 m leash (4 cells) keeps every scout near the hive, far from (0, 0).
    params = ScoutParams(n_scouts=30, max_range=500.0)
    inc_log = WalkLog()
    season([], None, 3, params, inc_log)
    cand_log = WalkLog(inc_log)
    resumed = season([(0, 0)], CONTROLS["mild"], 3, params, cand_log)
    assert cand_log.resumed_at == final_step(inc_log) > 0
    assert resumed == season([(0, 0)], CONTROLS["mild"], 3, params)


def test_beacon_next_to_the_hive_walks_everything():
    inc_log = WalkLog()
    season([], None, 3, log=inc_log)
    cand_log = WalkLog(inc_log)
    resumed = season([(HIVE_X + 1, HIVE_Y)], CONTROLS["mild"], 3, log=cand_log)
    assert cand_log.resumed_at == 0
    assert resumed == season([(HIVE_X + 1, HIVE_Y)], CONTROLS["mild"], 3)


def test_renumbered_beacon_resume_equals_full_recompute():
    """Desk, seed 7: a beacon at (0, 0) takes id 245 and moves (36, 34) to 246."""
    params = ScoutParams()
    colony = ColonyParams()
    grid, patches = landscape([(36, 34)])
    assert [p.id for p in patches if p.artificial] == [245]
    inc_log = WalkLog()
    run_season(grid, patches, WEATHER, None, colony, 7, params, 7, 9.0, log=inc_log)
    cand_grid, cand_patches = landscape([(36, 34), (0, 0)])
    ctrl = EnvControl(3.0, 5.0, colony.season)
    args = (cand_grid, cand_patches, WEATHER, ctrl, colony, 7, params, 7, 16.0)
    log = WalkLog(inc_log)
    assert run_season(*args, log=log) == run_season(*args)
    assert log.resumed_at == pair_rule_resume_step(inc_log, [(36, 34)], [(36, 34), (0, 0)]) == 216


def test_crop_edit_resumes_like_a_beacon_edit():
    """Emptying the last crop cell in scan order changes one crop patch, and
    the 500 m leash keeps every scout far from it."""
    params = ScoutParams(n_scouts=30, max_range=500.0)
    checkpoints = [0, 100, 216]
    inc_log = WalkLog()
    simulate_at_checkpoints(DESK, derive_patches(DESK), params, checkpoints, 3, log=inc_log)
    cells = DESK.cells.copy()
    rows, cols = np.nonzero(cells == CROP_CELL)
    assert (cols[-1], rows[-1]) == (71, 62)
    cells[62, 71] = EMPTY
    grid = CellGrid(DESK.width, DESK.height, DESK.cell_size, cells)
    patches = derive_patches(grid)
    log = WalkLog(inc_log)
    resumed = simulate_at_checkpoints(grid, patches, params, checkpoints, 3, log=log)
    assert resumed == simulate_at_checkpoints(grid, patches, params, checkpoints, 3)
    assert log.resumed_at == 216


def test_log_recording_a_second_walk_forgets_the_first():
    grid, patches = landscape([])
    log = WalkLog()
    simulate_at_checkpoints(grid, patches, SCOUTS, [100], 2, log=log)
    simulate_at_checkpoints(grid, patches, SCOUTS, [200], 1, log=log)
    assert sorted(log.states) == [0, *range(16, 200, 16), 200]
    grid, patches = landscape([(24, 48)])
    checkpoints = [0, 150, 200]
    resumed = simulate_at_checkpoints(grid, patches, SCOUTS, checkpoints, 1, log=WalkLog(log))
    assert resumed == simulate_at_checkpoints(grid, patches, SCOUTS, checkpoints, 1)


def test_resume_rejects_trajectories():
    inc_log = WalkLog()
    grid, patches = landscape([])
    simulate_at_checkpoints(grid, patches, SCOUTS, [20], 1, log=inc_log)
    with pytest.raises(ValueError):
        simulate_at_checkpoints(
            grid, patches, SCOUTS, [20], 1, collect_trajectories=True, log=WalkLog(inc_log)
        )


@pytest.mark.parametrize(
    "change",
    ["seed", "params", "obstacle"],
)
def test_walk_that_differs_beyond_its_beacons_starts_from_step_zero(change):
    inc_log = WalkLog()
    grid, patches = landscape([])
    simulate_at_checkpoints(grid, patches, SCOUTS, [50], 1, log=inc_log)
    seed, params = 1, SCOUTS
    if change == "seed":
        seed = 2
    elif change == "params":
        params = ScoutParams(n_scouts=30, turn_sigma=1.0)
    else:
        cells = grid.cells.copy()
        cells[0, 0] = OBSTACLE  # far from the hive
        grid = CellGrid(grid.width, grid.height, grid.cell_size, cells)
    log = WalkLog(inc_log)
    resumed = simulate_at_checkpoints(grid, patches, params, [0, 50], seed, log=log)
    assert log.resumed_at == 0
    assert resumed == simulate_at_checkpoints(grid, patches, params, [0, 50], seed)


def test_renamed_beacon_keeps_its_detections_and_targets():
    """Desk, seed 3, 500 m leash: the incumbent's beacon at (39, 32), id 245,
    is found at step 2 and a scout is locked onto it at step 216. A beacon at
    (0, 0), which no scout reaches, renumbers it to 246. The candidate
    resumes at 216, so the carried first detection and target must follow the
    new id."""
    params = ScoutParams(n_scouts=30, max_range=500.0)
    inc_log = WalkLog()
    season([(39, 32)], None, 3, params, inc_log)
    assert [p.id for p in landscape([(39, 32)])[1] if p.artificial] == [245]
    assert inc_log.found_at[245] == 2
    assert 245 in inc_log.states[216][3]
    cand_log = WalkLog(inc_log)
    resumed = season([(39, 32), (0, 0)], CONTROLS["mild"], 3, params, cand_log)
    assert resumed == season([(39, 32), (0, 0)], CONTROLS["mild"], 3, params)
    assert cand_log.resumed_at == 216 < final_step(cand_log)
    assert cand_log.found_at[246] == 2


def test_renaming_that_reorders_ids_walks_everything():
    """Two diagonal beacons that swap ids would change which one a scout
    locks onto first, so they count as moved and nothing is resumed. Resumed
    with the swap taken as a renaming, this walk differs from its recompute."""
    grid, patches = landscape([(36, 30), (37, 31)])
    inc_log = WalkLog()
    simulate_at_checkpoints(grid, patches, SCOUTS, [100], 0, log=inc_log)
    a, b = patches[-2:]
    swapped = patches[:-2] + [replace(a, id=b.id), replace(b, id=a.id)]
    log = WalkLog(inc_log)
    resumed = simulate_at_checkpoints(grid, swapped, SCOUTS, [50, 100], 0, log=log)
    assert resumed == simulate_at_checkpoints(grid, swapped, SCOUTS, [50, 100], 0)
    assert log.resumed_at == 0


def test_swap_of_ids_that_share_no_row_resumes():
    """Two beacons that share no sensing row swap ids. No cell's row changes
    its order, so no scout can lock onto another patch: the walk resumes at
    the log's last saved state and carries the first detection of beacon
    245, found at step 66, over to its new id 246."""
    grid, patches = landscape([(HIVE_X - 10, HIVE_Y - 8), (HIVE_X + 12, HIVE_Y + 9)])
    inc_log = WalkLog()
    simulate_at_checkpoints(grid, patches, SCOUTS, [100], 0, log=inc_log)
    a, b = patches[-2:]
    assert (a.id, b.id) == (245, 246) and inc_log.found_at[245] == 66
    swapped = patches[:-2] + [replace(a, id=b.id), replace(b, id=a.id)]
    log = WalkLog(inc_log)
    resumed = simulate_at_checkpoints(grid, swapped, SCOUTS, [50, 100], 0, log=log)
    assert resumed == simulate_at_checkpoints(grid, swapped, SCOUTS, [50, 100], 0)
    assert log.resumed_at == max(inc_log.states) == 100
    assert 246 in resumed.detected_patch_ids


@pytest.mark.parametrize("seed", [1, 7])
def test_every_grid_control_season_is_a_read_of_one_log(seed):
    """A season under any control is a read of one log: the desk season
    recorded under the strongest grid control, whose refresh steps are the
    longest of any, gives each 7x7 grid control's season and the
    uncontrolled one, each without walking a step."""
    scenario = load_scenario(default_config_path(), seed)
    grid = load_map(scenario.map_path)
    weather, colony, loop = weather_for(scenario), scenario.colony, scenario.settings
    patches = derive_patches(grid, loop.patch_params)
    steps, bounds = loop.control_grid_steps, loop.bounds

    def fresh(ctrl, log=None):
        return run_season(
            grid, patches, weather, ctrl, colony, loop.scout_cadence_days,
            scenario.scout, seed, loop.cap_h(ctrl), log=log,
        )

    def axis(hi):
        return [hi * i / (steps - 1) for i in range(steps)]

    strongest = EnvControl(bounds.max_temp_uplift, bounds.max_extra_light_h, colony.season)
    base = WalkLog()
    fresh(strongest, base)
    assert len(base.cells) == scenario.scout.steps(loop.fi_cap_h) == 384
    controls = [
        EnvControl(uplift, extra, colony.season)
        for uplift in axis(bounds.max_temp_uplift)
        for extra in axis(bounds.max_extra_light_h)
    ]
    assert len(controls) == 49 and controls[-1] == strongest
    for ctrl in [None, *controls]:
        log = WalkLog(base)
        assert fresh(ctrl, log) == fresh(ctrl), ctrl
        assert log.resumed_at == max(base.states) == len(base.cells)
