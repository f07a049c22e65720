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

Resuming a walk. Because the draws never depend on what scouts sense, two
walks with the same seed, grid obstacles and params agree step for step until
some scout stands on a cell whose sensing row differs between them. A
``WalkLog`` records a walk so that the next one can start from there: each
scout's cell after every step ((steps, n_scouts) int32, so O(steps x scouts)
memory), each patch's first-detection step (0 for none), and the full walk
state (positions, headings, targets, dwell and the Philox generator state,
which a jump cannot replace because ziggurat normals take a variable number
of words) at step 0, every 16 steps and the last step. One rule decides what
a walk given its predecessor's log reuses: the moved ids, those whose patch
differs between the two walks or exists in only one. Its sensing rows are the
predecessor's rows with the moved ids' entries rebuilt, and it restores the
last state saved before some logged scout stands on a cell that holds a moved
id, then runs the same step loop from there; checkpoints up to that state are
read off the log. Only the feedback loop passes logs, so a plain walk pays
for none of this.
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
# (member cell, offset) entries ``build_sensing_map`` expands at once.
_SENSING_CHUNK = 1 << 18


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


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """``keys`` sorted, without repeats. np.unique would import numpy.ma (1 MB of RSS)."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]


def build_sensing_map(
    grid: CellGrid, patches: list[Patch], radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)``: flat cell index -> sorted patch ids sensed there.

    Row ``cell`` is ``indices[indptr[cell]:indptr[cell + 1]]``, the ids of the
    patches with a member cell within ``radius`` cells of ``cell``. Members
    are expanded ``_SENSING_CHUNK`` (member, offset) entries at a time, so
    memory follows the rows, not members times offsets.
    """
    # No offset longer than the grid's larger side lands on the grid, so the
    # cap leaves every row as it is and bounds the offsets of a huge radius.
    reach = min(int(radius), max(grid.width, grid.height))
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
    stride = int(owners.max()) + 1 if owners.size else 1
    # Sorted, deduplicated (cell, id) keys order rows by cell and ids within a
    # row. Each chunk's keys are deduplicated before they are concatenated.
    per_chunk = max(1, _SENSING_CHUNK // len(offsets))
    parts = [np.empty(0, dtype=np.int64)]  # so that no patches concatenate too
    for lo in range(0, members.size, per_chunk):
        chunk = members[lo : lo + per_chunk, None]
        rr = (chunk // width + offsets[:, 0]).ravel()
        cc = (chunk % width + offsets[:, 1]).ravel()
        pids = np.repeat(owners[lo : lo + per_chunk], len(offsets))
        inside = (rr >= 0) & (rr < height) & (cc >= 0) & (cc < width)
        parts.append(_sorted_distinct((rr[inside] * width + cc[inside]) * stride + pids[inside]))
    return _csr(_sorted_distinct(np.concatenate(parts)), stride, width * height)


def _csr(keys: np.ndarray, stride: int, n_cells: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of sorted distinct keys ``cell * stride + id``."""
    cells, indices = np.divmod(keys, stride)
    indptr = np.zeros(n_cells + 1, dtype=np.int64)
    np.cumsum(np.bincount(cells, minlength=n_cells), out=indptr[1:])
    return indptr, indices


class WalkLog:
    """What one walk records so that a later walk can resume from it.

    ``WalkLog()`` records a walk; ``WalkLog(base)`` resumes from the walk that
    ``base`` recorded and records this one, ``base``'s prefix included. After
    the walk it holds:

    - ``cells``: (steps, n_scouts) int32, each scout's flat cell after every
      step. A resumed walk that stops before its resume step keeps the whole
      prefix, so ``steps`` can exceed the walk's own last checkpoint.
    - ``found_at``: int32 by patch id, the step of the patch's first
      detection, 0 for a patch not detected.
    - ``states``: step -> (x, y, heading, target, dwell, move generator state)
      at step 0, every ``SAVE_EVERY`` steps and at the last step walked.
    - ``resumed_at``: the step the walk took over from ``base``, 0 for none.

    It also keeps the walk's patches by id, its sensing rows and the key a
    resume is checked against. One rule decides a resume: the moved ids,
    those whose patch differs between ``base``'s walk and this one or exists
    in only one. They pick both the rows rebuilt and the resume step.
    """

    SAVE_EVERY = 16

    def __init__(self, base: WalkLog | None = None):
        self.base = base

    def _begin(self, grid, patches, params, seed, obstacles):
        """Build the walk's sensing rows; take over ``base``'s prefix if it can.

        Returns the rows and the resume step r. The rows are ``base``'s
        without the entries that hold a moved id, merged by (cell, id) with
        the rows of this walk's moved patches. r is the last state saved
        before a scout of ``base`` first stands on a cell that holds a moved
        id in either walk's rows, so detections up to r hold no moved id.
        """
        radius = params.detection_radius
        key = (seed, params, grid.width, grid.height, grid.cell_size, grid.hive_cell,
               obstacles.tobytes())
        base, self.base = self.base, None  # released: logs do not chain
        self.key, self.patches = key, {p.id: p for p in patches}
        self.resumed_at, self.states, self.cells, self.found_at = 0, {}, None, None
        if base is None or base.key != key:
            self.rows = build_sensing_map(grid, patches, radius)
            return self.rows, 0
        # ``is`` first: a candidate shares its unchanged patches with its base,
        # and comparing thousands of them field by field costs milliseconds.
        old, new = base.patches, self.patches
        moved_ids = [j for j, p in new.items() if old.get(j) is not p and old.get(j) != p]
        moved_ids += [j for j in old if j not in new]
        stride = max(max(old, default=0), max(new, default=0)) + 1
        moved = np.zeros(stride, dtype=bool)
        moved[moved_ids] = True
        n_cells = grid.width * grid.height
        old_cell = np.repeat(np.arange(n_cells), np.diff(base.rows[0]))
        gone = moved[base.rows[1]]
        add = build_sensing_map(grid, [new[j] for j in moved_ids if j in new], radius)
        add_cell = np.repeat(np.arange(n_cells), np.diff(add[0]))
        kept = old_cell[~gone] * stride + base.rows[1][~gone]
        added = add_cell * stride + add[1]
        self.rows = _csr(np.insert(kept, np.searchsorted(kept, added), added), stride, n_cells)
        changed = np.zeros(n_cells, dtype=bool)
        changed[old_cell[gone]] = changed[add_cell] = True
        touched = np.flatnonzero(changed[base.cells].any(axis=1))
        first = int(touched[0]) + 1 if touched.size else len(base.cells) + 1
        start = self.resumed_at = max(s for s in base.states if s < first)
        self.cells = base.cells[:start]
        self.found_at = np.where(base.found_at <= start, base.found_at, 0)
        self.states = {s: state for s, state in base.states.items() if s <= start}
        return self.rows, start


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


def _snapshot(step, coverage, found_at, n_patches, traversable, trajectories) -> ScoutReport:
    """The walk's report after ``step`` steps, given its coverage at that step."""
    detected = np.flatnonzero((found_at > 0) & (found_at <= step)).tolist()
    visited = int(np.count_nonzero(coverage))
    return ScoutReport(
        coverage=coverage.copy(),
        detected_patch_ids=frozenset(detected),
        covered_area_fraction=visited / traversable if traversable else 0.0,
        detected_patch_fraction=len(detected) / n_patches if n_patches else 0.0,
        trajectories=trajectories[:, :step] if trajectories is not None else None,
    )


def _walk_state(x, y, heading, target, dwell, move_rng) -> tuple:
    """Copies of everything a step reads from the steps before it, bar the cell."""
    return (x.copy(), y.copy(), heading.copy(), target.copy(), dwell.copy(),
            move_rng.bit_generator.state)


def simulate_at_checkpoints(
    grid: CellGrid,
    patches: list[Patch],
    params: ScoutParams,
    checkpoints: list[int],
    seed: int,
    collect_trajectories: bool = False,
    log: WalkLog | None = None,
) -> list[ScoutReport]:
    """One walk, snapshotted at each requested step count.

    The snapshot at ``s`` steps is identical to an independent run of ``s``
    steps with the same seed, which is what makes scouting monotone in
    effort and lets a season reuse a single walk across refresh days.

    With ``log`` the walk is recorded into it, and a log made with a base
    resumes from the base's walk: snapshots up to the resume step come from
    the base's cells and first-detection steps, and the step loop runs on
    from there.
    """
    order = sorted(set(checkpoints))
    if order and order[0] < 0:
        raise ValueError("checkpoints must be non-negative")
    if collect_trajectories and log is not None and log.base is not None:
        raise ValueError("a resumed walk cannot collect trajectories")
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

    blocked_cells = grid.obstacle_mask()
    start = 0
    if log is None:
        indptr, indices = build_sensing_map(grid, patches, params.detection_radius)
    else:
        (indptr, indices), start = log._begin(grid, patches, params, seed, blocked_cells)
    n_cells = width * height
    # Row n_cells is empty: the "previous cell" of every scout before step 1.
    # It starts at indptr[n_cells], past the last entry, which is only ever
    # read under a mask that excludes an empty row.
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
    found_at = np.zeros(n_ids, dtype=np.int32)  # step of each id's first detection

    leash_cells = params.max_range / grid.cell_size
    step_len = params.step_length

    coverage = np.zeros((height, width), dtype=np.int64)
    coverage_flat = coverage.reshape(-1)
    trajectories = (
        np.zeros((n, total_steps, 2), dtype=np.float64) if collect_trajectories else None
    )

    if log is not None:
        walked = np.empty((max(start, total_steps), n), dtype=np.int32)
    if start:
        walked[:start] = log.cells
        x, y, heading, target, dwell, rng_state = (a.copy() for a in log.states[start])
        move_rng.bit_generator.state = rng_state
        prev_flat = log.cells[start - 1].astype(np.int64)
        # Ids detected by the resume step are unchanged, so each is below n_ids.
        prior = log.found_at[:n_ids]
        found_at[: prior.size] = prior
    elif log is not None:
        log.states[0] = _walk_state(x, y, heading, target, dwell, move_rng)

    # Snapshots up to the resume step are read off the log's prefix; a fresh
    # walk has only step 0 there. Trajectory snapshots are views: the walk
    # never rewrites a past step.
    snapshots: dict[int, ScoutReport] = {}
    counted = 0
    for s in sorted({start, *(c for c in order if c <= start)}):
        if s > counted:
            coverage_flat += np.bincount(log.cells[counted:s].ravel(), minlength=n_cells)
            counted = s
        if s in wanted:
            snapshots[s] = _snapshot(s, coverage, found_at, n_patches, traversable, trajectories)

    for step in range(start + 1, total_steps + 1):
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
        if log is not None:
            walked[step - 1] = flat

        # Encounter episodes: one hashed draw per newly sensed (scout, patch)
        # pair, i.e. an entry of the current cell's row missing from the
        # previous cell's row. Pairs run in (scout, patch id) order.
        moved = ((flat != prev_flat) & (row_len[flat] > 0)).nonzero()[0]
        if moved.size:
            scout, pid = _row_pairs(indptr, row_len, indices, flat[moved], moved)
            # A pair is fresh unless its id is in the scout's previous row.
            was_start = indptr[prev_flat[scout]]
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
            found_at[pid[found_at[pid] == 0]] = step
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
        if log is not None and (step % log.SAVE_EVERY == 0 or step == total_steps):
            log.states[step] = _walk_state(x, y, heading, target, dwell, move_rng)

        if step in wanted:
            snapshots[step] = _snapshot(
                step, coverage, found_at, n_patches, traversable, trajectories
            )

    if log is not None:
        log.cells, log.found_at = walked, found_at
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
