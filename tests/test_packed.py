"""Tests for the Kronecker-packed q-free format of the KL side."""

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import qtkostka
from qtkostka import packed
from qtkostka.coeffs import CoeffPoly, ConsistencyError, ONE, V
from qtkostka.parabolic import d_basis, packed_row

OFF = 8

# q-free Laurent polynomials inside the window at OFF, with coefficients small
# enough that every sum and product below stays within the 2^31 digit bound
laurent = st.dictionaries(
    st.tuples(st.integers(-OFF, OFF), st.just(0)),
    st.integers(-1000, 1000),
    max_size=6,
).map(CoeffPoly)
polynomial = st.dictionaries(
    st.tuples(st.integers(0, 6), st.just(0)),
    st.integers(-1000, 1000),
    max_size=6,
).map(CoeffPoly)


@given(laurent, laurent, polynomial)
@settings(max_examples=150, deadline=None)
def test_packed_ring_operations_agree_with_coeffpoly(f, g, p):
    x, y = packed.encode(f, OFF), packed.encode(g, OFF)
    assert packed.decode(x, OFF) == f
    assert packed.decode(x + y, OFF) == f + g
    assert packed.decode(x - y, OFF) == f - g
    assert packed.decode(packed.encode(p, 0) * x, OFF) == p * f
    assert packed.max_coeff(x) == max(map(abs, f.terms.values()), default=0)
    assert oracles.l1(p) * packed.max_coeff(x) >= packed.max_coeff(packed.encode(p, 0) * x)


def test_window_and_bound_checks():
    # v^-1 on a value with a term at the bottom of the window drops a digit
    assert packed.shift_down(packed.encode(V, 0)) == packed.encode(ONE, 0)
    with pytest.raises(ConsistencyError, match="window"):
        packed.shift_down(packed.encode(ONE, 0))
    with pytest.raises(ConsistencyError, match="window"):
        packed.encode(CoeffPoly.v_power(-3), 2)
    with pytest.raises(ConsistencyError, match="q"):
        packed.encode(CoeffPoly.q_power(1), 2)
    packed.check_bound((1 << 31) - 1, "ok")
    with pytest.raises(ConsistencyError, match="32-bit packing width"):
        packed.check_bound(1 << 31, "too big")


def test_v_inverse_shift_past_the_window_is_caught():
    qtkostka.clear_caches()
    try:
        # (0,1,0) = s_2 (0,0,1) is built by H_2^{-1} from the row of (0,0,1),
        # where (0,0,1) is an ascent at 2 and takes a v^-1 echo
        row = packed_row((0, 0, 1), 3)
        row.terms[(0, 0, 1)] += 1  # a coefficient at v^-off, the window's floor
        with pytest.raises(ConsistencyError, match="window"):
            d_basis((0, 1), 3)
    finally:
        qtkostka.clear_caches()


def test_row_bound_that_stops_fitting_is_caught(monkeypatch):
    qtkostka.clear_caches()
    monkeypatch.setattr(packed, "WIDTH", 8)
    try:
        row = packed_row((0, 0, 1), 3)
        off = packed.offset(1, 3)
        # a coefficient of 100 fits 8-bit digits, but three times it does not
        row.terms[(0, 0, 1)] = packed.encode(CoeffPoly.integer(100), off)
        row.bound = 100
        with pytest.raises(ConsistencyError, match="8-bit packing width"):
            d_basis((0, 1), 3)
    finally:
        qtkostka.clear_caches()
