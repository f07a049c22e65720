import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from beeloop.control import RegionFeatures, SoftmaxClassifier
from beeloop.foraging import DayRecord, aggregate_totals
from beeloop.landscape import PatchParams, artificial_nectar
from beeloop.monitor import LinearModel, predict
from beeloop.rng import generator, mix64, mix64_array, ordered_sum
from beeloop.scouting import ScoutReport

U64 = st.integers(0, 2**64 - 1)


@given(st.lists(U64, max_size=64))
def test_mix64_array_matches_scalar(values):
    out = mix64_array(np.array(values, dtype=np.uint64))
    assert out.dtype == np.uint64
    assert out.tolist() == [mix64(v) for v in values]


# Episode draws compare ``float(u64) * 2**-64`` against a probability, so the
# vectorized uint64 -> float64 cast must round exactly as Python's float(int):
# to nearest, ties to even.
EDGE_U64 = [
    0,
    1,
    2**53,
    2**53 + 1,  # tie between 2**53 and 2**53 + 2: rounds down to even
    2**53 + 3,  # tie: rounds up to even
    2**63 - 1,
    2**63,
    2**63 + 2**10,  # half an ulp above 2**63: rounds down to even
    2**63 + 3 * 2**10,  # tie: rounds up to even
    2**64 - 1025,
    2**64 - 1024,  # tie between 2**64 - 2048 and 2**64: rounds up to 2**64
    2**64 - 1,
]


def test_u64_to_float_rounds_like_python_on_edges():
    cast = np.array(EDGE_U64, dtype=np.uint64).astype(np.float64)
    assert cast.tolist() == [float(v) for v in EDGE_U64]


@given(st.lists(U64, max_size=64))
def test_u64_to_float_rounds_like_python(values):
    cast = np.array(values, dtype=np.uint64).astype(np.float64)
    assert cast.tolist() == [float(v) for v in values]


# The scouting walk draws each step's turn noise with ``standard_normal(out=)``
# and its retry block as raw Philox words, converting only the words it uses
# as ``uniform(0, 2*pi)`` does. These pins fail loudly if a numpy release
# changes either draw, instead of silently moving walk bytes.
def philox_state(gen):
    state = gen.bit_generator.state
    inner = state["state"]
    return (
        inner["counter"].tolist(),
        inner["key"].tolist(),
        state["buffer"].tolist(),
        state["buffer_pos"],
        state["has_uint32"],
        state["uinteger"],
    )


@pytest.mark.parametrize("seed,n", [(1, 1), (7, 150), (42, 10_000)])
def test_walk_draws_match_normal_and_uniform(seed, n):
    ref = generator(seed, "move")
    new = generator(seed, "move")
    buf = np.empty(n)
    for _ in range(5):
        noise = ref.normal(0.0, 1.0, n)
        dirs = ref.uniform(0.0, 2.0 * math.pi, (n, 4))
        new.standard_normal(out=buf)
        words = new.bit_generator.random_raw((n, 4))
        turned = (words >> np.uint64(11)) * 2.0**-53 * (2.0 * math.pi)
        assert buf.tobytes() == noise.tobytes()
        assert turned.tobytes() == dirs.tobytes()
        assert philox_state(new) == philox_state(ref)


@pytest.mark.parametrize("value", [np.uint64(5), np.array(5, dtype=np.uint64)],
                         ids=["scalar", "0d_array"])
def test_mix64_array_on_0d_input(value):
    """A 0-d input mixes without the wrap warning that numpy scalars give
    (pytest turns RuntimeWarning into an error)."""
    out = mix64_array(value)
    assert out.dtype == np.uint64 and out.shape == ()
    assert int(out) == mix64(5)


# Added left to right these terms give 0.0; the built-in ``sum`` of Python
# 3.12 and later compensates the rounding and gives 1.0.
CANCELLING = [1e16, 1.0, -1e16]


def test_ordered_sum_adds_left_to_right():
    assert ordered_sum(CANCELLING) == 0.0
    assert ordered_sum([]) == 0
    arrays = ordered_sum(np.array([t]) for t in CANCELLING)
    assert arrays.tolist() == [0.0]
    assert ordered_sum(np.float64(t) for t in CANCELLING) == 0.0



def _season_totals(days):
    report = ScoutReport(np.zeros((1, 1), dtype=np.int64), frozenset(), 0.0, 0.0)
    return aggregate_totals(days, report, set())


ORDERED_SUM_SITES = {
    "mean_foraging_period_h": lambda t: _season_totals(
        [DayRecord(day, x, 0, 0, 0.0) for day, x in enumerate(t, 1)]
    ).mean_foraging_period_h,
    "mean_trips_per_sunshine_hour": lambda t: _season_totals(
        [DayRecord(day, 0.0, 0, 0, x) for day, x in enumerate(t, 1)]
    ).mean_trips_per_sunshine_hour,
    "artificial_nectar": lambda t: artificial_nectar(
        [SimpleNamespace(nectar_quantity=x) for x in t],
        PatchParams(artificial_nectar_fraction=1.0),
    ),
    "monitor_predict": lambda t: predict(LinearModel(tuple(t), 0.0, 0.0), (1.0,) * len(t)),
    "softmax_scores": lambda t: SoftmaxClassifier(
        (tuple(t),) * 3, (0.0,) * 3, (0.0,) * 3, (1.0,) * 3
    ).scores(RegionFeatures(0, 1.0, 1.0, 1.0))[0],
}


@pytest.mark.parametrize("site", sorted(ORDERED_SUM_SITES))
def test_artifact_sums_add_left_to_right(site):
    """Every float sum that reaches an artifact gives the left-to-right value,
    whatever the interpreter's built-in ``sum`` does."""
    assert ORDERED_SUM_SITES[site](CANCELLING) == 0.0
