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
computed by hashing (seed, scout, patch key, step), so they are
order-independent. A crop patch's key is its id; an artificial patch's is
2**32 plus its smallest member cell, which stays put when
``derive_patches`` renumbers it. An added beacon that joins no other
therefore leaves every scout's walk bitwise unchanged until some scout
actually senses it, wherever it falls in scan order. An edit to the crop
still renumbers the later crop ids and re-rolls their draws.

The walk is vectorized over scouts: each step is a fixed sequence of array
operations over all of them, with no per-scout Python loop. Three rules keep
each scout's costlier work to the scouts whose outputs it can change; each
is stated where it is applied: the leash (``_beyond_leash``), the encounter
episodes (``_Rows``) and the retries (``_retry``).

A run is fully determined by (grid, patches, params, hours, seed), and a
longer run with the same seed is an exact prefix-extension of a shorter one.
A walk can resume from an earlier walk's ``WalkLog``; that class and
``WalkLog._begin`` state what a resumed walk reuses. The feedback loop
resumes each candidate from its incumbent's log, and a log also reads its
walk under another control (see ``WalkLog``). A walk without a log pays for
none of this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from .errors import OutOfRangeValueError, write_utf8
from .landscape import CellGrid, Patch
from .rng import derive_seed, generator, mix64, mix64_array

_MAX_STEP_RETRIES = 4
_U64_SCALE = 1.0 / 2.0**64
# (member cell, offset) entries ``build_sensing_map`` expands at once: a
# memory budget of 256 KiB per int64 temporary. A map that fits one chunk
# is expanded whole, so a larger chunk lets a large map's temporaries, not
# its keys, set the build's peak.
_SENSING_CHUNK = 1 << 15
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

    def steps(self, hours: float) -> int:
        """The steps a walk of ``hours`` takes, rounded to the nearest."""
        return int(round(hours * self.steps_per_hour))


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
    members. The 32-bit id field needs fewer than 2**31 cells; patch ids index
    dense per-walk arrays, so they fit ``_Rows``'s int32 table. ``_SENSING_CHUNK``
    (member, offset) entries are expanded at a time, so each int64 temporary
    holds at most 256 KiB and memory follows the keys, not members times offsets.
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
    sizes = [len(p.cell_members) for p in patches]
    members = np.fromiter(
        chain.from_iterable(p.cell_members for p in patches), np.int64, sum(sizes)
    )
    owners = np.repeat(np.array([p.id for p in patches], dtype=np.int64), sizes)
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


def _draw_key(patch: Patch) -> int:
    """The key a patch's episode draws hash and a resumed walk matches it by:
    a crop patch's id, 2**32 plus an artificial patch's smallest member cell."""
    return 2**32 + patch.cell_members[0] if patch.artificial else patch.id


def _match(old: dict, new: dict):
    """Two walks' patches, each by draw key, matched: ``(to_new, added)``.

    ``to_new`` is indexed by old id: the patch's new id where its key holds
    an equal patch under any id, -1 where the patch moved or is gone.
    ``added`` holds the new patches that differ or are new.
    """
    size = max((p.id for p in chain(old.values(), new.values())), default=0) + 1
    to_new, added = np.arange(size), []
    for k, p in new.items():
        q = old.get(k)
        # ``is`` first: a candidate shares its unchanged patches with its base,
        # and comparing thousands of them field by field costs milliseconds.
        if q is p or q == p:
            continue
        if q is not None and replace(q, id=p.id) == p:
            to_new[q.id] = p.id
            continue
        added.append(p)
        if q is not None:
            to_new[q.id] = -1
    for k, q in old.items():
        if k not in new:
            to_new[q.id] = -1
    return to_new, added


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

    It also keeps the walk's patches by draw key (``_draw_key``) and the key a
    resume is checked against. One id map decides a resume (``_match``): a
    kept patch, whose key holds an equal patch in both walks, maps to its new
    id; a moved one, whose key holds a different patch or exists in only one
    walk, maps to -1. The moved patches pick both the keys rebuilt and the
    resume step; everything else carried over passes through the map.

    With no moved patch the resume step is ``base``'s last saved state, its
    last step. A walk that stops there walks no step: it is a read of
    ``base``'s walk, which is how a season under another control, whose
    checkpoints alone differ, reads one recorded walk.
    """

    def __init__(self, base: WalkLog | None = None):
        self.base = base

    def _begin(self, grid, patches, params, seed, obstacles):
        """Build the walk's sensing map; take over ``base``'s prefix if it can.

        Returns the keys and the resume step r. The keys are ``base``'s kept
        keys under their new ids, with the keys of this walk's moved patches
        inserted in order. r is the last state saved before a scout of
        ``base`` first stands on a cell that holds a moved patch in either
        walk's map, so detections up to r hold kept patches only; the
        prefix's first-detection steps and targets take their new ids.

        The walk runs from step 0 on a map built whole when there is no
        matching base, or when the new ids reorder some cell's row: a scout
        locks onto the lowest id it detects, so that alone could change its
        walk, and the keys inserted into must stay sorted.
        """
        radius = params.detection_radius
        key = (seed, params, grid.width, grid.height, grid.cell_size, grid.hive_cell,
               obstacles.tobytes())
        base, self.base = self.base, None  # released: logs do not chain
        self.key, self.patches = key, {_draw_key(p): p for p in patches}
        self.resumed_at, self.states, self.cells, self.found_at = 0, {}, None, None
        kept = None
        if base is not None and base.key == key:
            to_new, added = _match(base.patches, self.patches)
            # A moved patch's id maps to -1, which has every bit set.
            kept = to_new[base.rows & _ID_MASK]
            kept |= base.rows & ~_ID_MASK
            gone = kept < 0
            kept = kept[~gone]
        if kept is None or (kept[1:] <= kept[:-1]).any():
            self.rows = build_sensing_map(grid, patches, radius)
            return self.rows, 0
        added = build_sensing_map(grid, added, radius)
        self.rows = np.insert(kept, np.searchsorted(kept, added), added)
        changed = np.zeros(grid.width * grid.height, dtype=bool)
        changed[base.rows[gone] >> 32] = changed[added >> 32] = True
        touched = np.flatnonzero(changed[base.cells].any(axis=1))
        first = int(touched[0]) + 1 if touched.size else len(base.cells) + 1
        start = self.resumed_at = max(s for s in base.states if s < first)
        self.cells = base.cells[:start]
        # Only kept patches are detected or targeted by r.
        found = np.flatnonzero((base.found_at > 0) & (base.found_at <= start))
        self.found_at = np.zeros(to_new.size, dtype=np.int32)
        self.found_at[to_new[found]] = base.found_at[found]
        for s, (x, y, heading, target, dwell, rng) in base.states.items():
            if s <= start:
                target = np.where(target >= 0, to_new[target], -1)
                self.states[s] = (x, y, heading, target, dwell, rng)
        return self.rows, start


class _Rows:
    """A sensing map as a table of (n_cells + 1) x widest int32 ids, one column
    at least: ``ids[c]`` holds cell c's patch ids in ascending order, padded
    with -1. Cell ``n_cells`` has an empty row: the "previous cell" of every
    scout before step 1.

    A cell's signature is the id of a one-id row, -1 for every empty row, else
    a value above every id that is unique to the cell. A scout can newly sense
    a patch only where its signature changes onto a non-empty row.
    """

    def __init__(self, keys: np.ndarray, n_cells: int):
        cell = keys >> 32
        count = np.bincount(cell, minlength=n_cells + 1)
        # A key's column: its index less that of its row's first key.
        column = np.arange(cell.size) - (np.cumsum(count) - count)[cell]
        self.ids = np.full((n_cells + 1, count.max(initial=1)), -1, dtype=np.int32)
        self.ids[cell, column] = keys & _ID_MASK
        del cell, column  # so that the signature's temporaries add no new peak
        unique = np.arange(n_cells + 1, dtype=np.int64) + (1 << 32)
        self.signature = np.where(count <= 1, self.ids[:, 0], unique)

    def fresh(self, flat, prev_flat):
        """(scout, patch id) for each id of a scout's row at ``flat`` missing
        from its row at ``prev_flat``, in (scout, id) order."""
        moved = (self.signature[flat] != self.signature[prev_flat]).nonzero()[0]
        # ``take``: at 10 000 scouts, ``fresh`` with ``[]`` indexing takes 1.5 times as long.
        now = self.ids.take(flat[moved], axis=0)
        fresh = now >= 0
        for was in self.ids.take(prev_flat[moved], axis=0).T:
            fresh &= now != was[:, None]
        scout, column = fresh.nonzero()
        return moved[scout], now[scout, column]


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
    # np.maximum and np.minimum in place: at 150 points np.clip takes twice as long.
    cell = np.floor(py)
    np.minimum(np.maximum(cell, -1.0, out=cell), rows - 2, out=cell)
    cell *= cols
    col = np.floor(px)
    cell += np.minimum(np.maximum(col, -1.0, out=col), cols - 2, out=col)
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
    xy = np.fromiter(chain.from_iterable(p.centroid for p in patches), np.float64, 2 * ids.size)
    centroid[:, ids] = xy.reshape(-1, 2).T / grid.cell_size
    centroid_x, centroid_y = centroid
    # Episode draw mix64(mix64(mix64(key ^ mix64(scout)) ^ mix64(patch)) ^
    # mix64(step)): the scout and patch terms are hashed once per walk. The
    # patch term is its draw key, which no added beacon renumbers.
    scout_hash = mix64_array(np.uint64(episode_key) ^ mix64_array(np.arange(n, dtype=np.uint64)))
    token = np.arange(n_ids, dtype=np.uint64)
    beacons = [p for p in patches if p.artificial]
    token[[p.id for p in beacons]] = [_draw_key(p) for p in beacons]
    patch_hash = mix64_array(token)
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
        # Ids detected by the resume step are kept patches', so below n_ids.
        prior = log.found_at[:n_ids]
        found_at[: prior.size] = prior
    elif log is not None:
        log.states[0] = _walk_state(x, y, heading, target, dwell, move_rng)

    known: dict[int, tuple[frozenset[int], float]] = {}

    def read(step, flat):
        """Count ``step``'s cells ``flat`` and, at a checkpoint, what is known
        then: the ids detected by ``step`` and the covered area fraction."""
        np.add.at(coverage_flat, flat, weight[step])
        if step in wanted:
            detected = frozenset(np.flatnonzero((found_at > 0) & (found_at <= step)).tolist())
            covered = int(np.count_nonzero(coverage)) / traversable if traversable else 0.0
            known[step] = detected, covered

    # Step 0 and the steps up to the resume step are read off the log; each
    # walked step is read below, after its detections.
    for s in range(min(start, total_steps) + 1):
        read(s, log.cells[s - 1] if s else [])

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
        read(step, flat)
        prev_flat = flat

        # Only attracted scouts count down. Idle ones hold dwell 0 and target
        # -1, so the release leaves them as they are.
        dwell -= target >= 0
        np.putmask(target, dwell <= 0, -1)
        if log is not None and (step % _SAVE_EVERY == 0 or step == total_steps):
            log.states[step] = _walk_state(x, y, heading, target, dwell, move_rng)

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
    return simulate_at_checkpoints(
        grid, patches, params, [params.steps(hours)], seed, collect_trajectories
    )


def write_coverage_csv(path, report: ScoutReport) -> None:
    line = ",".join(["%d"] * report.coverage.shape[1]) + "\n"
    write_utf8(path, (line % tuple(row) for row in report.coverage.tolist()))


def write_trajectories_csv(path, trajectories: np.ndarray) -> None:
    """Write (n_scouts, steps, 2) cell coordinates, one row per scout step.

    Each cell reads ``np.float64(<shortest repr>)``, the numpy scalar repr
    the format was first written with. Rows are formatted and written one
    scout at a time, so memory stays flat in the number of scouts.
    """
    def scouts():
        yield "scout_id,step,x,y\n"
        for i, walk in enumerate(trajectories):
            row = f"{i},%d,np.float64(%r),np.float64(%r)\n"
            yield "".join([row % (t, x, y) for t, (x, y) in enumerate(walk.tolist(), 1)])

    write_utf8(path, scouts())
