"""Scout bee exploration over the landscape.

Movement law: a correlated random walk. Each scout starts at the hive with a
uniform random heading; per step the heading gains Gaussian noise and the
scout advances ``step_length`` cells. Steps into obstacles or off the grid
are re-sampled with a fresh uniform direction (bounded retries), then the
scout reflects in place. Scouts beyond ``max_range`` of the hive head home.

Detection: a scout within ``detection_radius`` cells of any member cell of a
patch opens an encounter episode with that patch; one Bernoulli draw against
the patch's detection probability decides the episode. Leaving the sensing
zone and re-entering opens a new episode. On a successful detection the
scout, if idle, locks onto the patch centroid for ``dwell_steps`` steps with
reduced heading noise, then resumes free exploration. An idle scout locks
onto the lowest-id patch it newly detects. This local attraction is what
lets small high-detectability patches act as waypoints.

Randomness is split into two streams so that landscape edits have only
causal effects. Movement draws come from a Philox stream in the same block
every step, whatever the scouts do: n standard normals (turn noise), then
n x 4 raw 64-bit words, all of them always consumed. Only a blocked scout
converts its words into retry directions, as ``uniform(0, 2 pi)`` would:
``(word >> 11) * 2**-53 * 2 pi``. Episode draws are computed by hashing
(seed, scout, patch id, step), so they are order-independent. Adding a patch
that takes the last id therefore leaves every scout's walk bitwise unchanged
until some scout actually senses it. Any other added patch does not:
``derive_patches`` numbers patches in scan order, crop first, so the new one
renumbers every patch after it and re-rolls their draws. The feedback loop
meets this with beacons: on the desk map at seed 7, a beacon at (0, 0) added
to one at (36, 34) moves the old one from id 245 to 246, and the walks
differ from step 2.

The walk is vectorized over scouts: each step is a fixed sequence of array
operations over all of them, with no per-scout Python loop. The sensing map
is a CSR table (cell -> sorted patch ids), so a scout's newly sensed patches
are its current cell's row minus its previous cell's row: each entry of the
one is compared with every entry of the other, and rows are short.

A run is fully determined by (grid, patches, params, hours, seed), and a
longer run with the same seed is an exact prefix-extension of a shorter one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRangeValueError
from .landscape import CellGrid, Patch
from .rng import derive_seed, generator, mix64, mix64_array

_MAX_STEP_RETRIES = 4
_U64_SCALE = 1.0 / 2.0**64


@dataclass(frozen=True)
class ScoutParams:
    n_scouts: int = 150
    steps_per_hour: int = 24
    step_length: float = 0.8  # cells per step
    turn_sigma: float = 1.6  # radians, free-exploration turning spread
    max_range: float = 6000.0  # meters, leash distance from hive
    detection_radius: float = 1.8  # cells, sensing distance to a patch cell
    dwell_steps: int = 10  # steps of attraction after a detection
    bias_sigma: float = 0.3  # radians, turning spread while attracted

    def __post_init__(self):
        if min(self.n_scouts, self.steps_per_hour, self.dwell_steps) <= 0:
            raise ValueError("scout counts and step rates must be positive")
        if min(self.step_length, self.max_range, self.detection_radius, self.bias_sigma) <= 0:
            raise ValueError("scout distances and spreads must be positive")
        if not (math.isfinite(self.step_length) and math.isfinite(self.detection_radius)):
            raise ValueError("step_length and detection_radius must be finite")
        if not (0.0 < self.turn_sigma <= math.pi):
            raise ValueError("turn_sigma must be in (0, pi]")


@dataclass(frozen=True)
class ScoutReport:
    """Aggregate of one scouting run; a season's report sums its refreshes' coverage."""

    coverage: np.ndarray  # (height, width) int64 visit counts
    detected_patch_ids: frozenset[int]
    covered_area_fraction: float
    detected_patch_fraction: float
    trajectories: np.ndarray | None = None  # (n_scouts, steps, 2) cell coords

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScoutReport):
            return NotImplemented
        return (
            np.array_equal(self.coverage, other.coverage)
            and self.detected_patch_ids == other.detected_patch_ids
            and self.covered_area_fraction == other.covered_area_fraction
            and self.detected_patch_fraction == other.detected_patch_fraction
        )


def build_sensing_map(
    grid: CellGrid, patches: list[Patch], radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)``: flat cell index -> sorted patch ids sensed there.

    Row ``cell`` is ``indices[indptr[cell]:indptr[cell + 1]]``, the ids of the
    patches with a member cell within ``radius`` cells of ``cell``.
    """
    reach = int(radius)
    offsets = np.array(
        [
            (dr, dc)
            for dr in range(-reach, reach + 1)
            for dc in range(-reach, reach + 1)
            if math.hypot(dr, dc) <= radius
        ],
        dtype=np.int64,
    )
    width, height = grid.width, grid.height
    members = np.array([f for p in patches for f in p.cell_members], dtype=np.int64)
    owners = np.repeat(
        np.array([p.id for p in patches], dtype=np.int64),
        [len(p.cell_members) for p in patches],
    )
    rr = (members[:, None] // width + offsets[:, 0]).ravel()
    cc = (members[:, None] % width + offsets[:, 1]).ravel()
    pids = np.repeat(owners, len(offsets))
    inside = (rr >= 0) & (rr < height) & (cc >= 0) & (cc < width)
    stride = int(owners.max()) + 1 if owners.size else 1
    # Sorted, deduplicated (cell, id) keys order rows by cell and ids within a
    # row. np.unique is avoided: it imports numpy.ma, about 1 MB of RSS.
    keys = np.sort((rr[inside] * width + cc[inside]) * stride + pids[inside])
    cells, indices = np.divmod(keys[np.diff(keys, prepend=-1) != 0], stride)
    indptr = np.zeros(width * height + 1, dtype=np.int64)
    np.cumsum(np.bincount(cells, minlength=width * height), out=indptr[1:])
    return indptr, indices


def _row_pairs(row_start, row_len, indices, cells, scouts):
    """(scout, patch id) for every entry of each scout's CSR row, in order."""
    counts = row_len[cells]
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    pos = np.repeat(row_start[cells] - ends + counts, counts) + np.arange(total)
    return np.repeat(scouts, counts), indices[pos]


def _blocked(px, py, obstacle):
    """Indices of the points ``(px, py)`` off the grid or in an obstacle cell."""
    height, width = obstacle.shape
    inside = (px >= 0) & (px < width) & (py >= 0) & (py < height)
    ii = inside.nonzero()[0]
    cell = py[ii].astype(np.int64) * width + px[ii].astype(np.int64)
    inside[ii[obstacle.ravel()[cell]]] = False
    return (~inside).nonzero()[0]


def _make_report(coverage, detected, n_patches, traversable, trajectories=None) -> ScoutReport:
    visited = int(np.count_nonzero(coverage))
    return ScoutReport(
        coverage=coverage,
        detected_patch_ids=frozenset(detected),
        covered_area_fraction=visited / traversable if traversable else 0.0,
        detected_patch_fraction=len(detected) / n_patches if n_patches else 0.0,
        trajectories=trajectories,
    )


def simulate_at_checkpoints(
    grid: CellGrid,
    patches: list[Patch],
    params: ScoutParams,
    checkpoints: list[int],
    seed: int,
    collect_trajectories: bool = False,
) -> list[ScoutReport]:
    """One walk, snapshotted at each requested step count.

    The snapshot at ``s`` steps is identical to an independent run of ``s``
    steps with the same seed, which is what makes scouting monotone in
    effort and lets a season reuse a single walk across refresh days.
    """
    order = sorted(set(checkpoints))
    if order and order[0] < 0:
        raise ValueError("checkpoints must be non-negative")
    wanted = set(order)
    total_steps = order[-1] if order else 0
    width, height = grid.width, grid.height
    traversable = grid.traversable_count()
    n_patches = len(patches)

    move_rng = generator(seed, "move")
    episode_key = derive_seed(seed, "detect")
    n = params.n_scouts
    hx, hy = grid.hive_cell
    x0, y0 = hx + 0.5, hy + 0.5
    # A longer step leaves the grid from the hive in every direction, so no
    # proposal or retry could ever land and every scout would stay home.
    reach = math.hypot(max(x0, width - x0), max(y0, height - y0))
    if params.step_length > reach:
        raise OutOfRangeValueError(
            f"step_length {params.step_length} exceeds the {reach:.2f} cells "
            "from the hive to the farthest map corner"
        )
    x = np.full(n, x0)
    y = np.full(n, y0)
    heading = move_rng.uniform(0.0, 2.0 * math.pi, n)
    turn_noise = np.empty(n)
    target = np.full(n, -1, dtype=np.int64)
    dwell = np.zeros(n, dtype=np.int64)

    indptr, indices = build_sensing_map(grid, patches, params.detection_radius)
    n_cells = width * height
    # Row n_cells is empty: the "previous cell" of every scout before step 1.
    row_start = np.append(indptr[:-1], 0)
    row_len = np.append(np.diff(indptr), 0)
    max_row = int(row_len.max())
    prev_flat = np.full(n, n_cells, dtype=np.int64)

    # Per-patch lookups indexed by patch id.
    ids = np.array([p.id for p in patches], dtype=np.int64)
    n_ids = int(ids.max()) + 1 if ids.size else 0
    detect_prob = np.zeros(n_ids)
    detect_prob[ids] = [p.detection_probability for p in patches]
    centroid = np.zeros((2, n_ids))
    centroid[:, ids] = np.reshape([p.centroid for p in patches], (-1, 2)).T / grid.cell_size
    centroid_x, centroid_y = centroid
    # Episode draw mix64(mix64(mix64(key ^ mix64(scout)) ^ mix64(patch)) ^
    # mix64(step)): the scout and patch terms are hashed once per walk.
    scout_hash = mix64_array(np.uint64(episode_key) ^ mix64_array(np.arange(n, dtype=np.uint64)))
    patch_hash = mix64_array(np.arange(n_ids, dtype=np.uint64))
    found = np.zeros(n_ids, dtype=bool)

    blocked_cells = grid.obstacle_mask()
    leash_cells = params.max_range / grid.cell_size
    step_len = params.step_length

    coverage = np.zeros((height, width), dtype=np.int64)
    coverage_flat = coverage.reshape(-1)
    trajectories = (
        np.zeros((n, total_steps, 2), dtype=np.float64) if collect_trajectories else None
    )

    # Trajectory snapshots are views: the walk never rewrites a past step.
    snapshots: dict[int, ScoutReport] = {}
    if 0 in order:
        traj0 = trajectories[:, :0] if trajectories is not None else None
        snapshots[0] = _make_report(coverage.copy(), (), n_patches, traversable, traj0)

    for step in range(1, total_steps + 1):
        # Per-step draws are a fixed block (n turn noises, n x retries raw
        # words) so one scout's detour never shifts another's stream.
        move_rng.standard_normal(out=turn_noise)
        retry_words = move_rng.bit_generator.random_raw((n, _MAX_STEP_RETRIES))

        # Base heading: leash overrides attraction overrides persistence.
        leashed = np.hypot(x - x0, y - y0) > leash_cells
        attracted = (target >= 0) & ~leashed
        sigma = np.where(attracted, params.bias_sigma, params.turn_sigma)
        if leashed.any():
            idx = leashed.nonzero()[0]
            heading[idx] = np.arctan2(y0 - y[idx], x0 - x[idx])
        if attracted.any():
            idx = attracted.nonzero()[0]
            t = target[idx]
            heading[idx] = np.arctan2(centroid_y[t] - y[idx], centroid_x[t] - x[idx])
        sigma *= turn_noise
        heading += sigma

        # Step proposal. Blocked scouts re-sample a direction (bounded
        # retries) and only they are rechecked; what stays blocked reflects.
        prop_x = x + step_len * np.cos(heading)
        prop_y = y + step_len * np.sin(heading)
        idx = _blocked(prop_x, prop_y, blocked_cells)
        for attempt in range(_MAX_STEP_RETRIES):
            if not idx.size:
                break
            # uniform(0, 2 pi) from the scout's raw word, as numpy converts it.
            turn = (retry_words[idx, attempt] >> np.uint64(11)) * 2.0**-53 * (2.0 * math.pi)
            heading[idx] = turn
            px = x[idx] + step_len * np.cos(turn)
            py = y[idx] + step_len * np.sin(turn)
            prop_x[idx] = px
            prop_y[idx] = py
            idx = idx[_blocked(px, py, blocked_cells)]
        if idx.size:
            heading[idx] += math.pi
            prop_x[idx] = x[idx]
            prop_y[idx] = y[idx]
        x, y = prop_x, prop_y
        if trajectories is not None:
            trajectories[:, step - 1, 0] = x
            trajectories[:, step - 1, 1] = y

        flat = y.astype(np.int64) * width + x.astype(np.int64)
        np.add.at(coverage_flat, flat, 1)

        # Encounter episodes: one hashed draw per newly sensed (scout, patch)
        # pair, i.e. an entry of the current cell's row missing from the
        # previous cell's row. Pairs run in (scout, patch id) order.
        moved = ((flat != prev_flat) & (row_len[flat] > 0)).nonzero()[0]
        if moved.size:
            scout, pid = _row_pairs(row_start, row_len, indices, flat[moved], moved)
            # A pair is fresh unless its id is in the scout's previous row.
            was_start = row_start[prev_flat[scout]]
            was_len = row_len[prev_flat[scout]]
            fresh = np.ones(scout.size, dtype=bool)
            for j in range(max_row):
                # Clipping only reads past a row the mask already excludes.
                seen = indices.take(was_start + j, mode="clip")
                fresh &= (seen != pid) | (was_len <= j)
            scout, pid = scout[fresh], pid[fresh]
            z = mix64_array(scout_hash[scout] ^ patch_hash[pid])
            z = mix64_array(z ^ np.uint64(mix64(step)))
            hit = z.astype(np.float64) * _U64_SCALE < detect_prob[pid]
            scout, pid = scout[hit], pid[hit]
            found[pid] = True
            # An idle scout locks onto its first hit, the lowest new patch id.
            starts = np.empty(scout.size, dtype=bool)
            starts[:1] = True
            np.not_equal(scout[1:], scout[:-1], out=starts[1:])
            first = starts.nonzero()[0]
            lock = first[target[scout[first]] < 0]
            target[scout[lock]] = pid[lock]
            dwell[scout[lock]] = params.dwell_steps
        prev_flat = flat

        # Only attracted scouts count down. Idle ones hold dwell 0 and target
        # -1, so the release leaves them as they are.
        dwell -= target >= 0
        np.putmask(target, dwell <= 0, -1)

        if step in wanted:
            traj = trajectories[:, :step] if trajectories is not None else None
            snapshots[step] = _make_report(
                coverage.copy(), found.nonzero()[0].tolist(), n_patches, traversable, traj
            )

    return [snapshots[s] for s in order]


def run_scouting(
    grid: CellGrid,
    patches: list[Patch],
    params: ScoutParams,
    hours: float,
    seed: int,
    collect_trajectories: bool = False,
) -> ScoutReport:
    """Run one scouting pass of hours * steps_per_hour steps."""
    if hours < 0:
        raise ValueError("hours must be non-negative")
    steps = int(round(hours * params.steps_per_hour))
    return simulate_at_checkpoints(
        grid, patches, params, [steps], seed, collect_trajectories
    )[0]


def write_coverage_csv(path, report: ScoutReport) -> None:
    line = ",".join(["%d"] * report.coverage.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line % tuple(row) for row in report.coverage.tolist())


def write_trajectories_csv(path, trajectories: np.ndarray) -> None:
    """Write (n_scouts, steps, 2) cell coordinates, one row per scout step.

    Each cell reads ``np.float64(<shortest repr>)``, the numpy scalar repr
    the format was first written with. Rows are formatted and written one
    scout at a time, so memory stays flat in the number of scouts.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("scout_id,step,x,y\n")
        for i, walk in enumerate(trajectories):
            row = f"{i},%d,np.float64(%r),np.float64(%r)\n"
            fh.write("".join([row % (t, x, y) for t, (x, y) in enumerate(walk.tolist(), 1)]))
