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
converts its words into retry directions (``_retry``). Episode draws are
computed by hashing (seed, scout, patch id, step), so they are
order-independent. Adding a patch that takes the last id therefore leaves
every scout's walk bitwise unchanged until some scout actually senses it.
Any other added patch does not: ``derive_patches`` numbers patches in scan
order, crop first, so the new one renumbers every patch after it and
re-rolls their draws. The feedback loop meets this with beacons: on the
desk map at seed 7, a beacon at (0, 0) added to one at (36, 34) moves the
old one from id 245 to 246, and the walks differ from step 2.

The walk is vectorized over scouts: each step is a fixed sequence of array
operations over all of them, with no per-scout Python loop. Three rules keep
each scout's costlier work to the scouts whose outputs it can change; each
is stated where it is applied: the leash (``_beyond_leash``), the encounter
episodes (``_Rows``) and the retries (``_retry``).

A run is fully determined by (grid, patches, params, hours, seed), and a
longer run with the same seed is an exact prefix-extension of a shorter one.
A walk can resume from its predecessor's ``WalkLog``; that class and
``WalkLog._begin`` state what a resumed walk reuses. Only the feedback loop
passes logs, so a plain walk pays for none of this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfRangeValueError
from .landscape import CellGrid, Patch
from .rng import derive_seed, generator, mix64, mix64_array

_MAX_STEP_RETRIES = 4
_U64_SCALE = 1.0 / 2.0**64
# (member cell, offset) entries ``build_sensing_map`` expands at once.
_SENSING_CHUNK = 1 << 18
_ID_MASK = 0xFFFFFFFF  # the patch id field of a sensing key
_SAVE_EVERY = 16  # steps between the walk states a ``WalkLog`` saves
# A 24 h day of steps must fit the int32 first-detection steps.
_MAX_STEPS_PER_HOUR = (2**31 - 1) // 24
# One scout per bee of the strongest colonies, which peak below 100 000
# workers. A walk's time and a ``WalkLog``'s 4 bytes per scout step grow
# linearly in it.
_MAX_SCOUTS = 100_000


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
        if self.n_scouts > _MAX_SCOUTS:
            raise ValueError(f"n_scouts must be <= {_MAX_SCOUTS}")
        if self.dwell_steps >= 1 << 63:
            raise ValueError("dwell_steps must fit the int64 dwell counter")
        if self.steps_per_hour > _MAX_STEPS_PER_HOUR:
            raise ValueError(f"steps_per_hour must be <= {_MAX_STEPS_PER_HOUR}")
        if not all(v > 0 for v in (self.step_length, self.max_range, self.detection_radius)):
            raise ValueError("scout distances must be positive")
        if not (math.isfinite(self.step_length) and math.isfinite(self.detection_radius)):
            raise ValueError("step_length and detection_radius must be finite")
        if not (0.0 < self.turn_sigma <= math.pi and 0.0 < self.bias_sigma <= math.pi):
            raise ValueError("turn_sigma and bias_sigma must be in (0, pi]")


@dataclass(frozen=True)
class ScoutReport:
    """One walk read at its checkpoints: ``coverage`` sums the visit counts at
    each checkpoint as given, repeats counted; the detections and fractions
    are the last checkpoint's; ``trajectories`` is the whole walk, which
    ``run_season`` cuts to its first refresh with foraging hours."""

    coverage: np.ndarray  # (height, width) int64 visit counts
    detected_patch_ids: frozenset[int]
    covered_area_fraction: float
    detected_patch_fraction: float
    trajectories: np.ndarray | None = None  # (n_scouts, steps, 2) cell coords
    # checkpoint -> (detected ids, covered area fraction) after that many steps
    at_checkpoint: dict[int, tuple[frozenset[int], float]] = field(default_factory=dict)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScoutReport):
            return NotImplemented
        return (
            np.array_equal(self.coverage, other.coverage)
            and self.detected_patch_ids == other.detected_patch_ids
            and self.covered_area_fraction == other.covered_area_fraction
            and self.detected_patch_fraction == other.detected_patch_fraction
            and self.at_checkpoint == other.at_checkpoint
        )


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """``keys`` sorted, without repeats. np.unique would import numpy.ma (1 MB of RSS)."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]


def build_sensing_map(grid: CellGrid, patches: list[Patch], radius: float) -> np.ndarray:
    """Sorted distinct int64 keys ``cell << 32 | id``: flat cell, patch id sensed there.

    A patch is sensed on every cell within ``radius`` cells of one of its
    members. The 32-bit id field needs fewer than 2**31 cells and fewer than
    2**32 patch ids. Members are expanded ``_SENSING_CHUNK`` (member, offset)
    entries at a time, so memory follows the keys, not members times offsets.
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
    # Each chunk's keys are deduplicated before they are concatenated.
    per_chunk = max(1, _SENSING_CHUNK // len(offsets))
    parts = [np.empty(0, dtype=np.int64)]  # so that no patches concatenate too
    for lo in range(0, members.size, per_chunk):
        chunk = members[lo : lo + per_chunk, None]
        rr = (chunk // width + offsets[:, 0]).ravel()
        cc = (chunk % width + offsets[:, 1]).ravel()
        pids = np.repeat(owners[lo : lo + per_chunk], len(offsets))
        inside = (rr >= 0) & (rr < height) & (cc >= 0) & (cc < width)
        parts.append(_sorted_distinct((rr[inside] * width + cc[inside]) << 32 | pids[inside]))
    return _sorted_distinct(np.concatenate(parts))


class WalkLog:
    """What one walk records so that a later walk can resume from it.

    Because the draws never depend on what scouts sense, two walks with the
    same seed, grid obstacles and params agree step for step until some
    scout stands on a cell whose sensing row differs between them.
    ``WalkLog()`` records a walk; ``WalkLog(base)`` resumes from the walk that
    ``base`` recorded and records this one, ``base``'s prefix included. After
    the walk it holds:

    - ``cells``: (steps, n_scouts) int32, each scout's flat cell after every
      step, so O(steps x scouts) memory. A resumed walk that stops before its
      resume step keeps the whole prefix, so ``steps`` can exceed the walk's
      own last checkpoint.
    - ``found_at``: int32 by patch id, the step of the patch's first
      detection, 0 for a patch not detected.
    - ``states``: step -> (x, y, heading, target, dwell, move generator state)
      at step 0, every ``_SAVE_EVERY`` steps and at the last step walked. The
      generator state is saved whole: a jump cannot replace it, because
      ziggurat normals take a variable number of words.
    - ``resumed_at``: the step the walk took over from ``base``, 0 for none.
    - ``rows``: the walk's sensing map, the sorted keys ``cell << 32 | id``
      that ``build_sensing_map`` gives.

    It also keeps the walk's patches by id and the key a resume is checked
    against. One rule decides a resume: the moved ids, those whose patch
    differs between ``base``'s walk and this one or exists in only one. They
    pick both the keys rebuilt and the resume step.
    """

    def __init__(self, base: WalkLog | None = None):
        self.base = base

    def _begin(self, grid, patches, params, seed, obstacles):
        """Build the walk's sensing map; take over ``base``'s prefix if it can.

        Returns the keys and the resume step r. The keys are ``base``'s
        without those that hold a moved id, with the keys of this walk's moved
        patches inserted in order. r is the last state saved before a scout
        of ``base`` first stands on a cell that holds a moved id in either
        walk's map, so detections up to r hold no moved id.
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
        moved = np.zeros(max(old.keys() | new.keys(), default=0) + 1, dtype=bool)
        moved[moved_ids] = True
        gone = moved[base.rows & _ID_MASK]
        kept = base.rows[~gone]
        added = build_sensing_map(grid, [new[j] for j in moved_ids if j in new], radius)
        self.rows = np.insert(kept, np.searchsorted(kept, added), added)
        changed = np.zeros(grid.width * grid.height, dtype=bool)
        changed[base.rows[gone] >> 32] = changed[added >> 32] = True
        touched = np.flatnonzero(changed[base.cells].any(axis=1))
        first = int(touched[0]) + 1 if touched.size else len(base.cells) + 1
        start = self.resumed_at = max(s for s in base.states if s < first)
        self.cells = base.cells[:start]
        self.found_at = np.where(base.found_at <= start, base.found_at, 0)
        self.states = {s: state for s, state in base.states.items() if s <= start}
        return self.rows, start


class _Rows:
    """A sensing map read by cell: cell c's row, the ids sensed there, is
    ``keys[start[c]:start[c] + length[c]]``. Cell ``n_cells`` has an empty
    row: the "previous cell" of every scout before step 1.

    A cell's signature is the id of a one-id row, else a value above every id
    that is unique to the cell. A scout can newly sense a patch only where its
    signature changes onto a non-empty row.
    """

    def __init__(self, keys: np.ndarray, n_cells: int):
        self.keys = keys
        self.length = np.bincount(keys >> 32, minlength=n_cells + 1)
        self.start = np.cumsum(self.length) - self.length
        self.widest = int(self.length.max())
        self.signature = np.arange(n_cells + 1, dtype=np.int64) + (1 << 32)
        single = (self.length == 1).nonzero()[0]
        self.signature[single] = keys[self.start[single]] & _ID_MASK

    def fresh(self, flat, prev_flat):
        """(scout, patch id) for each id of a scout's row at ``flat`` missing
        from its row at ``prev_flat``, in (scout, id) order."""
        moved = (self.signature[flat] != self.signature[prev_flat]).nonzero()[0]
        counts = self.length[flat[moved]]
        moved, counts = moved[counts > 0], counts[counts > 0]
        if not moved.size:
            return moved, moved
        ends = np.cumsum(counts)
        pos = np.repeat(self.start[flat[moved]] - ends + counts, counts) + np.arange(ends[-1])
        scout, pid = np.repeat(moved, counts), self.keys[pos] & _ID_MASK
        # A pair is fresh unless its key, moved to the scout's previous cell,
        # is in that cell's row. A read past the row holds another cell's
        # key, or one of the row's own where the clip holds it.
        prev = prev_flat[scout]
        was_start, was_key = self.start[prev], prev << 32 | pid
        fresh = np.ones(scout.size, dtype=bool)
        for j in range(self.widest):
            fresh &= self.keys.take(was_start + j, mode="clip") != was_key
        return scout[fresh], pid[fresh]


def _beyond_leash(dx, dy, leash):
    """``np.hypot(dx, dy) > leash`` for finite offsets, with hypot only near the circle.

    The squared distance decides wherever it lies more than a 2**-40 relative
    margin from ``leash**2``: the squares, their sum and hypot err by a few
    ulps, far inside it. Where ``leash**2`` leaves [2**-1000, 2**1000],
    underflow or overflow could eat the margin, so hypot decides every scout.
    """
    square = leash * leash
    if not 2.0**-1000 <= square <= 2.0**1000:
        return np.hypot(dx, dy) > leash
    lo, hi = square * (1.0 - 2.0**-40), square * (1.0 + 2.0**-40)
    d2 = dx * dx
    d2 += dy * dy
    beyond = d2 > lo
    if beyond.any():
        near = (beyond & (d2 <= hi)).nonzero()[0]
        beyond[near] = np.hypot(dx[near], dy[near]) > leash
    return beyond


def _blocked(px, py, walls):
    """Mask of the points ``(px, py)`` off the grid or in an obstacle cell.

    ``walls`` is the obstacle mask padded with a one-cell blocked border, so
    a point off the grid clips onto the border.
    """
    rows, cols = walls.shape
    cell = np.clip(np.floor(py), -1.0, rows - 2)
    cell *= cols
    cell += np.clip(np.floor(px), -1.0, cols - 2)
    cell += cols + 1  # grid cell (r, c) is padded cell (r + 1, c + 1)
    return walls.ravel().take(cell.astype(np.intp))


def _retry(x, y, words, step_len, walls):
    """Heading and position of blocked scouts at ``(x, y)`` after their retries.

    Retry k of a scout heads ``uniform(0, 2 pi)`` from its raw word
    ``words[:, k]``, as numpy converts it. All retries are tested in one pass
    and each scout takes its first open one. A scout with none open stays put
    and reflects: it faces its last retry turned by pi.
    """
    turn = (words >> np.uint64(11)) * 2.0**-53 * (2.0 * math.pi)
    px = x[:, None] + step_len * np.cos(turn)
    py = y[:, None] + step_len * np.sin(turn)
    open_ = ~_blocked(px, py, walls)
    first = open_.argmax(axis=1)
    scouts = np.arange(first.size)
    ok = open_[scouts, first]
    heading = np.where(ok, turn[scouts, first], turn[:, -1] + math.pi)
    return heading, np.where(ok, px[scouts, first], x), np.where(ok, py[scouts, first], y)


def _known(step, coverage, found_at, traversable) -> tuple[frozenset[int], float]:
    """Detected ids and covered area fraction at ``step``, given the coverage then."""
    detected = np.flatnonzero((found_at > 0) & (found_at <= step)).tolist()
    visited = int(np.count_nonzero(coverage))
    return frozenset(detected), visited / traversable if traversable else 0.0


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
) -> ScoutReport:
    """One walk to the last checkpoint, read at each of ``checkpoints``.

    What the walk knows at ``s`` steps equals an independent run of ``s``
    steps with the same seed, which is what makes scouting monotone in
    effort and lets a season reuse a single walk across refresh days. A
    step's visits count once for every checkpoint at or after it.

    With ``log`` the walk is recorded into it, and a log made with a base
    resumes from the base's walk: the steps up to the resume step are read
    off the base's cells and first-detection steps, and the step loop runs
    on from there.
    """
    ranked = sorted(checkpoints)
    if ranked and ranked[0] < 0:
        raise ValueError("checkpoints must be non-negative")
    if collect_trajectories and log is not None and log.base is not None:
        raise ValueError("a resumed walk cannot collect trajectories")
    wanted = set(ranked)
    total_steps = ranked[-1] if ranked else 0
    # weight[s]: how many checkpoints step s counts in, those at or after it
    weight = len(ranked) - np.searchsorted(ranked, np.arange(total_steps + 1))
    width, height = grid.width, grid.height
    traversable = grid.traversable_count()

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
    walls = np.pad(blocked_cells, 1, constant_values=True)
    start = 0
    if log is None:
        keys = build_sensing_map(grid, patches, params.detection_radius)
    else:
        keys, start = log._begin(grid, patches, params, seed, blocked_cells)
    rows = _Rows(keys, width * height)
    prev_flat = np.full(n, width * height, dtype=np.int64)

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

    # Steps up to the resume step are read off the log's prefix and counted
    # as the loop below counts a walked step; a fresh walk has only step 0.
    known: dict[int, tuple[frozenset[int], float]] = {}
    for s in range(min(start, total_steps) + 1):
        if s:
            np.add.at(coverage_flat, log.cells[s - 1], weight[s])
        if s in wanted:
            known[s] = _known(s, coverage, found_at, traversable)

    for step in range(start + 1, total_steps + 1):
        # Per-step draws are a fixed block (n turn noises, n x retries raw
        # words) so one scout's detour never shifts another's stream.
        move_rng.standard_normal(out=turn_noise)
        retry_words = move_rng.bit_generator.random_raw((n, _MAX_STEP_RETRIES))

        # Base heading: leash overrides attraction overrides persistence.
        leashed = _beyond_leash(x - x0, y - y0, leash_cells)
        attracted = target >= 0
        turn = turn_noise * params.turn_sigma
        if leashed.any():
            idx = leashed.nonzero()[0]
            heading[idx] = np.arctan2(y0 - y[idx], x0 - x[idx])
            attracted[idx] = False
        idx = attracted.nonzero()[0]
        if idx.size:
            t = target[idx]
            heading[idx] = np.arctan2(centroid_y[t] - y[idx], centroid_x[t] - x[idx])
            turn[idx] = turn_noise[idx] * params.bias_sigma
        heading += turn

        # Step proposal; blocked scouts retry, and what stays blocked reflects.
        prop_x = x + step_len * np.cos(heading)
        prop_y = y + step_len * np.sin(heading)
        idx = _blocked(prop_x, prop_y, walls).nonzero()[0]
        if idx.size:
            heading[idx], prop_x[idx], prop_y[idx] = _retry(
                x[idx], y[idx], retry_words[idx], step_len, walls
            )
        x, y = prop_x, prop_y
        if trajectories is not None:
            trajectories[:, step - 1, 0] = x
            trajectories[:, step - 1, 1] = y

        flat = y.astype(np.int64) * width + x.astype(np.int64)
        np.add.at(coverage_flat, flat, weight[step])
        if log is not None:
            walked[step - 1] = flat

        # Encounter episodes: one hashed draw per newly sensed (scout, patch)
        # pair, i.e. an entry of the current cell's row missing from the
        # previous cell's row.
        scout, pid = rows.fresh(flat, prev_flat)
        if scout.size:
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
        if log is not None and (step % _SAVE_EVERY == 0 or step == total_steps):
            log.states[step] = _walk_state(x, y, heading, target, dwell, move_rng)

        if step in wanted:
            known[step] = _known(step, coverage, found_at, traversable)

    if log is not None:
        log.cells, log.found_at = walked, found_at
    detected, covered = known[total_steps] if ranked else (frozenset(), 0.0)
    return ScoutReport(
        coverage=coverage,
        detected_patch_ids=detected,
        covered_area_fraction=covered,
        detected_patch_fraction=len(detected) / len(patches) if patches else 0.0,
        trajectories=trajectories,
        at_checkpoint=known,
    )


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
    return simulate_at_checkpoints(grid, patches, params, [steps], seed, collect_trajectories)


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
