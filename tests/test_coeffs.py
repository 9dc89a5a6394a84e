"""Tests for the two-variable Laurent coefficient ring."""

import pytest
from hypothesis import given, settings, strategies as st

from qtkostka import clear_caches
from qtkostka.coeffs import (
    _INTERNED,
    _PAIRS,
    _SHIFTS,
    CoeffPoly,
    NonExactDivision,
    ONE,
    V,
    VINV,
    V_MINUS_VINV,
    ZERO,
    add_product,
    finish,
    interned,
    shifted,
)

T = CoeffPoly.t_power(1)
Q = CoeffPoly.q_power(1)

polys = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(-2, 2)),
    st.integers(-6, 6),
    max_size=5,
).map(CoeffPoly)


def naive_sum(items):
    """The terms of sum k v^a q^b p r over items (k, a, b, p, r), zeros dropped.

    The reference for the kernel and the ring operations built on it: one
    term pair at a time into a plain dict, with fresh exponent tuples.
    """
    out = {}
    for k, a, b, p, r in items:
        for (a1, b1), x in p.terms.items():
            for (a2, b2), y in r.terms.items():
                e = (a + a1 + a2, b + b1 + b2)
                out[e] = out.get(e, 0) + k * x * y
    return {e: c for e, c in out.items() if c}


def test_constructors():
    assert CoeffPoly.integer(0) == ZERO
    assert CoeffPoly.integer(1) == ONE
    assert CoeffPoly.monomial(1, 1, 0) == V
    assert CoeffPoly.monomial(1, -1, 0) == VINV
    assert CoeffPoly.monomial(1, 0, 1) == Q
    assert CoeffPoly.t_power(1) == V * V
    assert CoeffPoly.v_power(3) == V * V * V
    assert V - VINV == V_MINUS_VINV
    assert CoeffPoly({(0, 0): 0}) == ZERO  # zero terms are pruned


def test_arithmetic_basics():
    assert V * VINV == ONE
    assert (ONE + T) * (ONE - T) == ONE - T * T
    assert (V + Q) - (V + Q) == ZERO
    assert (ONE - T * Q) * ONE == ONE - T * Q
    assert ZERO * (V + Q) == ZERO
    assert (V + VINV) ** 2 == T + CoeffPoly.integer(2) + T.shift(v_exp=-4)
    assert -(V - VINV) == VINV - V
    assert bool(ZERO) is False and bool(V) is True


def test_shift_and_scale():
    p = ONE + T * Q
    assert p.shift(v_exp=2) == T + T * T * Q
    assert p.shift(q_exp=1) == Q + T * Q * Q
    assert p * CoeffPoly.integer(3) == CoeffPoly.integer(3) + T * Q * CoeffPoly.integer(3)
    assert V.shift(v_exp=-1) == ONE


def test_bar_involution():
    assert V.bar() == VINV
    assert Q.bar() == CoeffPoly.q_power(-1)
    assert (V + Q).bar() == VINV + Q.bar()
    assert ONE.bar() == ONE


def test_predicates():
    assert (T + T * Q).is_nonneg()
    assert not (T - Q).is_nonneg()
    assert (V + Q).is_q_polynomial()
    assert not Q.bar().is_q_polynomial()
    assert (V + T).is_q_free()
    assert not (V + Q).is_q_free()
    assert (ONE + V).is_v_polynomial()
    assert not (VINV + V).is_v_polynomial()
    assert (V + T).min_v_exp() == 1
    assert ZERO.is_zero()


def test_specialize_q0():
    assert (ONE + T * Q).specialize_q0() == ONE
    assert (Q * Q + V * Q).specialize_q0() == ZERO
    assert (V + T).specialize_q0() == V + T
    with pytest.raises(ValueError):
        Q.bar().specialize_q0()


def test_exact_div():
    p = (ONE - T) * (ONE + V + Q)
    assert p.exact_div(ONE - T) == ONE + V + Q
    assert (ONE - T * T).exact_div(ONE - T) == ONE + T
    with pytest.raises(NonExactDivision):
        ONE.exact_div(ONE - T)
    with pytest.raises(NonExactDivision):
        (V + Q).exact_div(ZERO)


def test_phi_and_b_partition():
    assert CoeffPoly.phi(0) == ONE
    assert CoeffPoly.phi(1) == ONE - T
    assert CoeffPoly.phi(2) == (ONE - T) * (ONE - T * T)
    assert CoeffPoly.b_partition(()) == ONE
    assert CoeffPoly.b_partition((3,)) == ONE - T
    assert CoeffPoly.b_partition((1, 1)) == (ONE - T) * (ONE - T * T)
    assert CoeffPoly.b_partition((2, 1)) == (ONE - T) * (ONE - T)
    assert CoeffPoly.b_partition((2, 2, 1)) == CoeffPoly.phi(2) * CoeffPoly.phi(1)


def test_b_partition_is_the_interned_object_of_its_value():
    # the memo keeps it, so it is the one object of its value
    clear_caches()
    for pi in ((), (3,), (1, 1), (2, 1), (2, 2, 1)):
        b = CoeffPoly.b_partition(pi)
        assert _INTERNED.get(b) is b, pi
    clear_caches()


def test_pretty():
    assert ZERO.pretty() == "0"
    assert ONE.pretty() == "1"
    assert (ZERO - ONE).pretty() == "-1"
    assert (V + VINV).pretty() == "v^-1 + v"
    assert (ONE - T * Q).pretty() == "1 - t*q"
    assert (T + T * T).pretty() == "t + t^2"
    assert (T + T * Q + T * T * Q).pretty() == "t + t*q + t^2*q"
    # odd v-powers force the v form even when use_t is requested
    assert V.pretty(use_t=True) == "v"
    assert (T + T * T).pretty(use_t=False) == "v^2 + v^4"


def test_json_round_trip():
    p = T - V * Q * CoeffPoly.integer(2) + CoeffPoly.monomial(5, -3, 2)
    data = p.to_json()
    assert isinstance(data, list)
    assert CoeffPoly.from_json(data) == p
    assert CoeffPoly.from_json(ZERO.to_json()) == ZERO


def test_json_entries_with_one_exponent_pair_are_summed():
    one, two, minus_one = ({"v": 0, "q": 0, "c": c} for c in ("1", "2", "-1"))
    assert CoeffPoly.from_json([one, two]).terms == {(0, 0): 3}
    assert CoeffPoly.from_json([one, minus_one]).terms == {}
    assert CoeffPoly.from_json([one, minus_one, V.to_json()[0]]) == V


@given(polys, polys, polys)
@settings(max_examples=120, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b).terms == naive_sum([(1, 0, 0, a, ONE), (1, 0, 0, b, ONE)])
    assert (a - b).terms == naive_sum([(1, 0, 0, a, ONE), (-1, 0, 0, b, ONE)])
    assert (a * b).terms == naive_sum([(1, 0, 0, a, b)])
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a


@given(polys)
@settings(max_examples=120, deadline=None)
def test_bar_is_an_involution(p):
    assert p.bar().bar() == p


@given(polys, polys)
@settings(max_examples=120, deadline=None)
def test_bar_is_multiplicative(a, b):
    assert (a * b).bar() == a.bar() * b.bar()


@given(polys, polys)
@settings(max_examples=100, deadline=None)
def test_exact_div_inverts_multiplication(a, d):
    if d.is_zero():
        return
    assert (a * d).exact_div(d) == a


@given(polys)
@settings(max_examples=120, deadline=None)
def test_json_round_trips(p):
    assert CoeffPoly.from_json(p.to_json()) == p


products = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-2, 2), polys, polys),
    max_size=6,
)


@given(products)
@settings(max_examples=120, deadline=None)
def test_add_product_is_the_fold_of_sum_and_product(items):
    terms = {}
    for k, a, b, p, r in items:
        add_product(terms, p, r, k, a, b)
    got = finish(terms)
    assert got.terms == naive_sum(items)
    assert 0 not in got.terms.values()
    # every product, then its negation: the sum cancels to the zero polynomial
    terms = {}
    for k, a, b, p, r in items:
        add_product(terms, p, r, k, a, b)
        add_product(terms, r, p, -k, a, b)
    assert finish(terms) == ZERO and finish(terms).terms == {}


@given(polys, st.integers(-3, 3), st.integers(-2, 2))
@settings(max_examples=60, deadline=None)
def test_shift_takes_its_exponent_pairs_from_the_shared_table(p, a, b):
    got = p.shift(a, b)
    assert got == p * CoeffPoly.monomial(1, a, b)
    if a or b:
        assert all(_PAIRS[e] is e for e in got.terms)
    else:
        assert got is p


@given(polys, polys, st.integers(-3, 3), st.integers(-3, 3), st.integers(-2, 2))
@settings(max_examples=60, deadline=None)
def test_sums_and_products_take_their_exponent_pairs_from_the_shared_table(a, b, k, v, q):
    mono = CoeffPoly.monomial(k or 1, v, q)
    # a product builds every key; a monomial factor, the unit among them, is no exception
    for got in (a * b, a * mono, mono * a, a * ONE, a * CoeffPoly.integer(2)):
        assert all(_PAIRS.get(e) is e for e in got.terms)
    # a sum or difference keeps the keys of a and builds the rest
    for got in (a + b, a - b, a + mono, a - mono):
        assert all(_PAIRS.get(e) is e for e in got.terms if e not in a.terms)


def test_the_shift_memo_keeps_its_coefficient_and_is_one_object_per_value():
    clear_caches()
    p = CoeffPoly({(0, 0): 1, (1, 1): 2})
    s = shifted(p, 1)
    assert s == p.shift(v_exp=1) and shifted(p, 1) is s and shifted(p, 0) is p
    # an equal coefficient, another object, gets the one shifted object
    assert shifted(CoeffPoly(p.terms), 1) is s is interned(p.shift(v_exp=1))
    pid = id(p)
    del p
    # the entry keeps p, so its id stays taken while the entry lives
    assert _SHIFTS[pid, 1][0].terms == {(0, 0): 1, (1, 1): 2}
    clear_caches()
    assert not _SHIFTS


def test_a_coefficient_built_after_a_clear_never_receives_a_stale_shift():
    clear_caches()
    ids = set()
    for k in range(40):
        p = CoeffPoly({(0, k): 1, (2, 0): -1})
        ids.add(id(p))
        assert shifted(p, 3).terms == {(3, k): 1, (5, 0): -1}
        # the clear frees p's entry; the next p may take its id
        clear_caches()
        del p
    # CPython hands the freed ids out again, so the ids did repeat
    assert len(ids) < 40
