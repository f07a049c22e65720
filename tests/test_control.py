import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beeloop.control import (
    CoverageLabel,
    PlacementPolicy,
    RegionFeatures,
    SoftmaxClassifier,
    ThresholdClassifier,
    classify,
    classify_regions,
    extract_features,
    propose_patches,
    synthetic_region_sample,
    train_softmax,
)
from beeloop.errors import ClassImbalanceError, TilingMismatchError
from beeloop.landscape import EMPTY, parse_map, tile_regions, with_artificial

from conftest import make_map

BEACON = (0.95, 1.0)  # (detection probability, nectar liters) of a proposed patch


def feat(region=0, density=0.0, coverage=0.0, dist=1000.0):
    return RegionFeatures(region, density, coverage, dist)


def test_extract_empty_coverage_all_zero(desk_grid):
    tiling = tile_regions(desk_grid, 4, 4)
    cov = np.zeros((desk_grid.height, desk_grid.width), dtype=np.int64)
    feats = extract_features(cov, tiling, desk_grid)
    assert len(feats) == 16
    assert all(f.coverage_fraction == 0.0 and f.visit_density == 0.0 for f in feats)


def test_extract_uniform_coverage(desk_grid):
    tiling = tile_regions(desk_grid, 4, 4)
    cov = np.ones((desk_grid.height, desk_grid.width), dtype=np.int64)
    cov[desk_grid.obstacle_mask()] = 0
    feats = extract_features(cov, tiling, desk_grid)
    assert all(f.visit_density == 1.0 for f in feats)
    assert all(f.coverage_fraction == 1.0 for f in feats)


def test_extract_excludes_all_obstacle_region():
    grid = parse_map(make_map(["##....", "##.H..", "##...."]))
    tiling = tile_regions(grid, 1, 3)
    cov = np.zeros((grid.height, grid.width), dtype=np.int64)
    feats = extract_features(cov, tiling, grid)
    assert [f.region_id for f in feats] == [1, 2]


def test_extract_rejects_mismatched_tiling(desk_grid):
    grid_small = parse_map(make_map(["..", ".H"]))
    tiling_small = tile_regions(grid_small, 1, 1)
    cov = np.zeros((desk_grid.height, desk_grid.width), dtype=np.int64)
    with pytest.raises(TilingMismatchError):
        extract_features(cov, tiling_small, desk_grid)


def test_threshold_classification():
    clf = ThresholdClassifier(0.2, 0.8)
    assert classify(clf, feat(coverage=0.0)) is CoverageLabel.LOW
    assert classify(clf, feat(coverage=0.5)) is CoverageLabel.NORMAL
    assert classify(clf, feat(coverage=0.95)) is CoverageLabel.HIGH
    # boundary values are not strictly beyond the cuts
    assert classify(clf, feat(coverage=0.2)) is CoverageLabel.NORMAL
    assert classify(clf, feat(coverage=0.8)) is CoverageLabel.NORMAL


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_threshold_label_monotone(a, b):
    clf = ThresholdClassifier()
    la = classify(clf, feat(coverage=min(a, b)))
    lb = classify(clf, feat(coverage=max(a, b)))
    assert int(la) <= int(lb)


def high_softmax():
    return SoftmaxClassifier(
        weights=((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
        biases=(0.0, 0.0, 0.0),
        feature_means=(0.0, 0.0, 0.0),
        feature_scales=(1.0, 1.0, 1.0),
    )


def test_softmax_affine_scores_pick_high():
    clf = high_softmax()
    f = feat(density=10.0)
    assert clf.scores(f) == (0.0, 0.0, 10.0)
    assert classify(clf, f) is CoverageLabel.HIGH


def test_softmax_tie_breaks_low():
    clf = SoftmaxClassifier(
        weights=((0.0,) * 3,) * 3, biases=(1.0, 1.0, 1.0),
        feature_means=(0.0,) * 3, feature_scales=(1.0,) * 3,
    )
    assert classify(clf, feat(density=3.0)) is CoverageLabel.LOW


def test_softmax_constant_shift_invariance():
    base = high_softmax()
    shifted = SoftmaxClassifier(
        weights=base.weights, biases=(7.0, 7.0, 7.0),
        feature_means=base.feature_means, feature_scales=base.feature_scales,
    )
    sample = synthetic_region_sample(100, seed=3)
    for f, _ in sample:
        assert classify(base, f) == classify(shifted, f)


def test_train_on_separable_data_is_perfect():
    low = [(feat(i, coverage=0.02, density=0.1), CoverageLabel.LOW) for i in range(20)]
    mid = [(feat(i + 20, coverage=0.5, density=2.0), CoverageLabel.NORMAL) for i in range(20)]
    high = [(feat(i + 40, coverage=0.97, density=6.0), CoverageLabel.HIGH) for i in range(20)]
    clf = train_softmax(low + mid + high, seed=1)
    assert all(classify(clf, f) == label for f, label in low + mid + high)


def test_train_matches_threshold_rule_on_heldout():
    sample = synthetic_region_sample(600, seed=9)
    train, test = sample[:450], sample[450:]
    clf = train_softmax(train, seed=2)
    hits = sum(1 for f, label in test if classify(clf, f) == label)
    assert hits / len(test) >= 0.90


def test_train_rejects_class_imbalance():
    sample = [(feat(i, coverage=0.01), CoverageLabel.LOW) for i in range(20)]
    sample += [(feat(i + 20, coverage=0.5), CoverageLabel.NORMAL) for i in range(20)]
    sample += [(feat(40, coverage=0.9), CoverageLabel.HIGH)] * 3
    with pytest.raises(ClassImbalanceError):
        train_softmax(sample, seed=1)


def corridor_world():
    rows = ["." * 10 for _ in range(10)]
    rows[5] = "H" + "." * 9
    return parse_map(make_map(rows, cell_size=100.0))


def test_propose_nothing_without_low_regions():
    grid = corridor_world()
    tiling = tile_regions(grid, 1, 2)
    labeled = [(feat(0, coverage=0.5), CoverageLabel.NORMAL),
               (feat(1, coverage=0.9), CoverageLabel.HIGH)]
    assert propose_patches(labeled, tiling, grid, 5, BEACON) == []


def test_propose_zero_budget():
    grid = corridor_world()
    tiling = tile_regions(grid, 1, 2)
    labeled = [(feat(1, coverage=0.0), CoverageLabel.LOW)]
    assert propose_patches(labeled, tiling, grid, 0, BEACON) == []


def test_propose_places_on_corridor():
    grid = corridor_world()
    tiling = tile_regions(grid, 1, 2)
    labeled = [(feat(0, coverage=0.5, dist=100.0), CoverageLabel.NORMAL),
               (feat(1, coverage=0.0, dist=700.0), CoverageLabel.LOW)]
    policy = PlacementPolicy(waypoint_fraction=0.7, search_radius=3.0)
    (p,) = propose_patches(labeled, tiling, grid, 3, BEACON, policy)
    assert p.region_id == 1
    col, row = p.cell
    assert grid.cells[row, col] == EMPTY
    # hive (0.5, 5.5) -> region 1 centroid (7.5, 5.5); waypoint at x = 5.4
    assert abs(row - 5) <= 3 and 3 <= col <= 8


def test_propose_deterministic_and_legal(desk_grid):
    tiling = tile_regions(desk_grid, 8, 8)
    labeled = [
        (feat(r, coverage=0.01 * (r % 7), dist=100.0 * r), CoverageLabel.LOW)
        for r in range(64)
    ]
    a = propose_patches(labeled, tiling, desk_grid, 10, BEACON)
    b = propose_patches(labeled, tiling, desk_grid, 10, BEACON)
    assert a == b
    assert len(a) == 10
    for p in a:
        assert desk_grid.cells[p.cell[1], p.cell[0]] == EMPTY
    # after applying, a re-run never proposes an occupied cell
    updated = with_artificial(desk_grid, [p.cell for p in a])
    again = propose_patches(labeled, tiling, updated, 10, BEACON)
    occupied = {p.cell for p in a}
    assert all(p.cell not in occupied for p in again)


@settings(max_examples=40, deadline=None)
@given(
    low=st.dictionaries(st.integers(0, 63), st.floats(0.0, 1.0), max_size=64),
    k=st.integers(0, 64),
    fraction=st.floats(0.0, 1.0),
    radius=st.floats(0.0, 10.0),
    picks=st.lists(st.integers(0, 10**6), max_size=4),
)
def test_propose_distinct_empty_cells_within_budget(desk_grid, low, k, fraction, radius, picks):
    """Proposals take distinct empty cells for distinct regions, at most ``k``,
    whatever the Low regions, the policy and the beacons placed beforehand."""
    tiling = tile_regions(desk_grid, 8, 8)
    empty_rows, empty_cols = np.nonzero(desk_grid.cells == EMPTY)
    n = empty_rows.size
    placed = {(int(empty_cols[i % n]), int(empty_rows[i % n])) for i in picks}
    grid = with_artificial(desk_grid, sorted(placed))
    labeled = [
        (feat(r, coverage=low.get(r, 0.5), dist=100.0 * r),
         CoverageLabel.LOW if r in low else CoverageLabel.NORMAL)
        for r in range(64)
    ]
    proposals = propose_patches(
        labeled, tiling, grid, k, BEACON, PlacementPolicy(fraction, radius)
    )
    cells = [p.cell for p in proposals]
    assert len(set(cells)) == len(cells)
    assert len({p.region_id for p in proposals}) == len(proposals)
    assert all(grid.cells[row, col] == EMPTY for col, row in cells)
    assert len(proposals) <= k


def test_classify_regions_maps_ids():
    clf = ThresholdClassifier()
    feats = [feat(3, coverage=0.1), feat(9, coverage=0.5)]
    labels = classify_regions(clf, feats)
    assert labels == {3: CoverageLabel.LOW, 9: CoverageLabel.NORMAL}
