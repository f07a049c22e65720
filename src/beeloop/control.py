"""Controlling model: region coverage labels and artificial patch proposals.

Regions are labeled Low / Normal / High from their coverage fraction. The
reference rule is a pair of thresholds; a trained softmax classifier over
region features is available as a drop-in alternative, and
``pretrained_softmax`` is the one a run uses. Under-covered regions
get one proposed artificial patch each, placed on the corridor from the hive
toward the region centroid as a stepping stone, not a destination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ClassImbalanceError, TilingMismatchError, write_utf8
from .landscape import ARTIFICIAL, CellGrid, EMPTY, RegionTiling, region_centroids_m
from .rng import derive_seed, generator, ordered_sum

# The softmax trainer's fixed recipe: step size, full-batch epochs, the
# fewest samples of each label it trains on, and the synthetic regions a
# pre-trained classifier learns from.
SOFTMAX_LEARNING_RATE = 0.1
SOFTMAX_EPOCHS = 500
SOFTMAX_MIN_PER_CLASS = 10
SOFTMAX_TRAIN_SIZE = 600


class CoverageLabel(IntEnum):
    LOW = 0
    NORMAL = 1
    HIGH = 2


@dataclass(frozen=True)
class RegionFeatures:
    region_id: int
    visit_density: float  # visits per traversable cell
    coverage_fraction: float  # visited / traversable cells
    distance_to_hive: float  # meters, region centroid to hive

    def vector(self) -> tuple[float, float, float]:
        return (self.visit_density, self.coverage_fraction, self.distance_to_hive)


@dataclass(frozen=True)
class ThresholdClassifier:
    """Label by coverage fraction alone: below low_cut is Low, above high_cut is High."""

    low_cut: float = 0.2
    high_cut: float = 0.8

    def __post_init__(self):
        if not (self.low_cut < self.high_cut):
            raise ValueError("low_cut must be below high_cut")


@dataclass(frozen=True)
class SoftmaxClassifier:
    """Multinomial logistic model over standardized region features."""

    weights: tuple[tuple[float, ...], ...]  # (3 classes, n features)
    biases: tuple[float, float, float]
    feature_means: tuple[float, ...]
    feature_scales: tuple[float, ...]

    def scores(self, f: RegionFeatures) -> tuple[float, float, float]:
        z = [
            (v - m) / s
            for v, m, s in zip(f.vector(), self.feature_means, self.feature_scales)
        ]
        return tuple(
            b + ordered_sum(w * x for w, x in zip(row, z))
            for row, b in zip(self.weights, self.biases)
        )


Classifier = ThresholdClassifier | SoftmaxClassifier


@dataclass(frozen=True)
class PatchProposal:
    cell: tuple[int, int]  # (col, row)
    region_id: int
    detection_probability: float
    nectar_quantity: float  # liters


@dataclass(frozen=True)
class PlacementPolicy:
    waypoint_fraction: float = 0.7  # position along hive -> region corridor
    search_radius: float = 8.0  # cells around the waypoint to find an empty cell

    def __post_init__(self):
        if not (0.0 <= self.waypoint_fraction <= 1.0 and self.search_radius >= 0):
            raise ValueError("waypoint_fraction must be in [0, 1] and search_radius >= 0")


def extract_features(
    coverage: np.ndarray, tiling: RegionTiling, grid: CellGrid
) -> list[RegionFeatures]:
    """Per-region aggregation; regions with no traversable cells are dropped."""
    if coverage.shape != (grid.height, grid.width):
        raise TilingMismatchError(
            f"coverage shape {coverage.shape} does not match grid "
            f"{(grid.height, grid.width)}"
        )
    if tiling.region_of_cell.shape != (grid.height, grid.width):
        raise TilingMismatchError("tiling does not match grid")
    hx, hy = grid.hive_xy_m
    traversable = ~grid.obstacle_mask().ravel()
    region = tiling.region_of_cell.ravel()[traversable]
    visits_of_cell = coverage.ravel()[traversable]
    n = np.bincount(region, minlength=tiling.n_regions)
    visited = np.bincount(region[visits_of_cell != 0], minlength=len(n))
    # visit counts stay integers: a float-weighted bincount rounds above 2**53
    visits = np.zeros(len(n), dtype=np.int64)
    np.add.at(visits, region, visits_of_cell)
    cx, cy = region_centroids_m(tiling, grid)
    n, visited, visits, cx, cy = (a.tolist() for a in (n, visited, visits, cx, cy))
    return [
        RegionFeatures(
            region_id=r,
            visit_density=visits[r] / n[r],
            coverage_fraction=visited[r] / n[r],
            distance_to_hive=math.hypot(cx[r] - hx, cy[r] - hy),
        )
        for r in range(tiling.n_regions)
        if n[r]
    ]


def classify(classifier: Classifier, f: RegionFeatures) -> CoverageLabel:
    if isinstance(classifier, ThresholdClassifier):
        if f.coverage_fraction < classifier.low_cut:
            return CoverageLabel.LOW
        if f.coverage_fraction > classifier.high_cut:
            return CoverageLabel.HIGH
        return CoverageLabel.NORMAL
    scores = classifier.scores(f)
    best = max(scores)
    # ties break toward the lower label
    return CoverageLabel([i for i, s in enumerate(scores) if s == best][0])


def classify_regions(
    classifier: Classifier, features: list[RegionFeatures]
) -> dict[int, CoverageLabel]:
    return {f.region_id: classify(classifier, f) for f in features}


def train_softmax(
    labeled: list[tuple[RegionFeatures, CoverageLabel]], seed: int
) -> SoftmaxClassifier:
    """Batch gradient descent on the multinomial cross-entropy.

    Runs the fixed recipe ``SOFTMAX_*``: each class needs
    ``SOFTMAX_MIN_PER_CLASS`` samples, or ``ClassImbalanceError`` is raised.
    """
    counts = {label: 0 for label in CoverageLabel}
    for _, label in labeled:
        counts[label] += 1
    lacking = [label.name for label, c in counts.items() if c < SOFTMAX_MIN_PER_CLASS]
    if lacking:
        raise ClassImbalanceError(
            f"classes below {SOFTMAX_MIN_PER_CLASS} samples: {', '.join(lacking)}"
        )

    X = np.array([f.vector() for f, _ in labeled])
    y = np.array([int(label) for _, label in labeled])
    means = X.mean(axis=0)
    scales = X.std(axis=0)
    scales[scales == 0] = 1.0
    Z = (X - means) / scales
    n, k = Z.shape
    onehot = np.zeros((n, 3))
    onehot[np.arange(n), y] = 1.0

    rng = generator(seed, "softmax-init")
    W = rng.normal(0.0, 0.01, (3, k))
    b = np.zeros(3)
    for _ in range(SOFTMAX_EPOCHS):
        logits = Z @ W.T + b
        logits -= logits.max(axis=1, keepdims=True)
        expz = np.exp(logits)
        probs = expz / expz.sum(axis=1, keepdims=True)
        grad = probs - onehot
        W -= SOFTMAX_LEARNING_RATE * (grad.T @ Z) / n
        b -= SOFTMAX_LEARNING_RATE * grad.mean(axis=0)

    return SoftmaxClassifier(
        weights=tuple(tuple(float(w) for w in row) for row in W),
        biases=tuple(float(v) for v in b),
        feature_means=tuple(float(m) for m in means),
        feature_scales=tuple(float(s) for s in scales),
    )


def synthetic_region_sample(
    n: int, seed: int, thresholds: ThresholdClassifier = ThresholdClassifier()
) -> list[tuple[RegionFeatures, CoverageLabel]]:
    """Synthetic region features labeled by the threshold rule.

    Used to pre-train the softmax variant and to benchmark it against the
    rule that generated the labels.
    """
    rng = generator(seed, "synthetic-regions")
    out = []
    for i in range(n):
        coverage = float(rng.random())
        density = float(coverage * rng.uniform(0.5, 8.0))
        distance = float(rng.uniform(0.0, 6000.0))
        f = RegionFeatures(i, density, coverage, distance)
        out.append((f, classify(thresholds, f)))
    return out


def pretrained_softmax(seed: int, thresholds: ThresholdClassifier) -> SoftmaxClassifier:
    """The softmax variant a run classifies with: ``SOFTMAX_TRAIN_SIZE``
    synthetic regions labeled by ``thresholds``, sampled and trained under
    the run seed's ``"classifier"`` seed."""
    seed = derive_seed(seed, "classifier")
    return train_softmax(synthetic_region_sample(SOFTMAX_TRAIN_SIZE, seed, thresholds), seed)


def propose_patches(
    labeled: list[tuple[RegionFeatures, CoverageLabel]],
    tiling: RegionTiling,
    grid: CellGrid,
    k: int,
    beacon: tuple[float, float],
    policy: PlacementPolicy = PlacementPolicy(),
) -> list[PatchProposal]:
    """Greedy waypoint placement for Low regions, worst coverage first.

    Every proposal is a ``beacon``: (detection probability, nectar liters).
    Each chosen region gets one patch at the empty cell nearest the point
    ``waypoint_fraction`` of the way from hive to region centroid. Regions
    with no empty cell within ``search_radius`` of that point are skipped,
    as are regions whose corridor waypoint already has an artificial patch
    within ``search_radius``: one beacon per corridor, piling more on the
    same spot diverts no additional scouts.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    low = sorted(
        (f for f, label in labeled if label == CoverageLabel.LOW),
        key=lambda f: (f.coverage_fraction, f.distance_to_hive, f.region_id),
    )
    hx, hy = grid.hive_cell
    hive_pt = (hx + 0.5, hy + 0.5)
    cs = grid.cell_size
    artificial_rows, artificial_cols = np.nonzero(grid.cells == ARTIFICIAL)
    beacons = list(zip(artificial_cols.tolist(), artificial_rows.tolist()))
    cx_m, cy_m = (a.tolist() for a in region_centroids_m(tiling, grid))
    proposals: list[PatchProposal] = []
    for f in low:
        if len(proposals) >= k:
            break
        target = (cx_m[f.region_id] / cs, cy_m[f.region_id] / cs)
        wx = hive_pt[0] + policy.waypoint_fraction * (target[0] - hive_pt[0])
        wy = hive_pt[1] + policy.waypoint_fraction * (target[1] - hive_pt[1])
        if any(
            math.hypot(bc + 0.5 - wx, br + 0.5 - wy) <= policy.search_radius
            for bc, br in beacons
        ):
            continue
        best = None
        r = int(math.ceil(policy.search_radius))
        for row in range(max(0, int(wy) - r), min(grid.height, int(wy) + r + 1)):
            for col in range(max(0, int(wx) - r), min(grid.width, int(wx) + r + 1)):
                if grid.cells[row, col] != EMPTY:
                    continue
                d = math.hypot(col + 0.5 - wx, row + 0.5 - wy)
                if d > policy.search_radius:
                    continue
                key = (d, row, col)
                if best is None or key < best[0]:
                    best = (key, (col, row))
        if best is None:
            continue
        cell = best[1]
        beacons.append(cell)
        proposals.append(
            PatchProposal(
                cell=cell,
                region_id=f.region_id,
                detection_probability=beacon[0],
                nectar_quantity=beacon[1],
            )
        )
    return proposals


def proposal_fields(p: PatchProposal) -> str:
    """A proposal's five CSV fields: cell_x,cell_y,region_id,detect_prob,nectar_l."""
    return (
        f"{p.cell[0]},{p.cell[1]},{p.region_id},"
        f"{p.detection_probability!r},{p.nectar_quantity!r}"
    )


def write_proposals_csv(path, proposals: list[PatchProposal]) -> None:
    write_utf8(path, [
        "cell_x,cell_y,region_id,detect_prob,nectar_l\n",
        *(f"{proposal_fields(p)}\n" for p in proposals),
    ])


def write_labels_csv(
    path, labeled: list[tuple[RegionFeatures, CoverageLabel]]
) -> None:
    write_utf8(path, [
        "region_id,visit_density,coverage_fraction,distance_to_hive_m,label\n",
        *(f"{f.region_id},{f.visit_density!r},{f.coverage_fraction!r},"
          f"{f.distance_to_hive!r},{label.name.lower()}\n" for f, label in labeled),
    ])
