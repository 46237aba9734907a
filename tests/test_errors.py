"""The one integer rule for sizes, counts and stream keys (errors.integer)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zoptim import BlockQuadratic, InvalidArgumentError, PerturbationSpec, step_directions
from zoptim.errors import integer

NUMPY_INTS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


@st.composite
def integral(draw):
    """(an integer in some spelling, the int it spells)."""
    n = draw(st.integers(-2**70, 2**70))
    kind = draw(st.sampled_from(("int", "numpy", "float")))
    if kind == "numpy":
        dtype = draw(st.sampled_from(NUMPY_INTS))
        info = np.iinfo(dtype)
        n = min(max(n, int(info.min)), int(info.max))
        return dtype(n), n
    if kind == "float":
        value = float(n)  # rounds a large n to a float that is still integral
        return value, int(value)
    return n, n


NOT_INTEGERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).filter(
        lambda v: not math.isfinite(v) or v % 1 != 0),
    st.booleans(),
    st.just(np.True_),
    st.text(max_size=3),
    st.none(),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(case=integral(), lo=st.none() | st.integers(-2**71, 2**71),
       width=st.none() | st.integers(0, 2**72))
def test_integer_returns_the_int_an_integral_value_spells_within_its_bounds(case, lo, width):
    value, n = case
    hi = None if lo is None or width is None else lo + width
    if lo is None or (lo <= n and (hi is None or n < hi)):
        got = integer(value, "k", lo, hi)
        assert type(got) is int and got == n
    else:
        bound = f">= {lo}" if hi is None else rf"in \[{lo}, {hi}\)"
        with pytest.raises(InvalidArgumentError, match=f"^k must be {bound}, got {n}$"):
            integer(value, "k", lo, hi)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(value=NOT_INTEGERS, lo=st.none() | st.just(0))
def test_integer_rejects_every_value_that_is_not_an_integer(value, lo):
    with pytest.raises(InvalidArgumentError, match="^k must be an integer, got "):
        integer(value, "k", lo)


def test_integral_reals_and_numpy_ints_give_the_bits_of_their_ints():
    assert BlockQuadratic(d=9.0, regime="heterogeneous", seed=0).stack.tobytes() == (
        BlockQuadratic(d=9, regime="heterogeneous", seed=0).stack.tobytes())
    spec = PerturbationSpec("gaussian", 1e-6, np.uint64(7))
    assert spec.base_seed == 7 and type(spec.base_seed) is int
    got = step_directions(spec, np.int64(3), np.int64(2), 9.0)
    assert got.tobytes() == step_directions(PerturbationSpec("gaussian", 1e-6, 7), 3, 2, 9).tobytes()
