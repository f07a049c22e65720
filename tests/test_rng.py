import numpy as np
from hypothesis import given, strategies as st

from beeloop.rng import mix64, mix64_array

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
