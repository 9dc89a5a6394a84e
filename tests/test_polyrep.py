"""Tests for the polynomial representation and the Cherednik operators."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from qtkostka import polyrep
from qtkostka.bruhat import min_rep_length
from qtkostka.coeffs import CoeffPoly, ConsistencyError, ONE, V, VINV
from qtkostka.compositions import canonicalize, compositions_of, pad, sorting_data
from qtkostka.macdonald import e_monomial
from qtkostka.parabolic import ModuleElement, bar_d
from qtkostka.polyrep import (
    ZPoly,
    bar_polynomial,
    cherednik_xi,
    from_module,
    to_module,
    xi_eigenvalue,
)

T = CoeffPoly.t_power(1)
Q = CoeffPoly.q_power(1)

coeffs = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-1, 1)),
    st.integers(-3, 3),
    max_size=3,
).map(CoeffPoly)


def zpolys(rank):
    keys = st.lists(st.integers(0, 3), min_size=0, max_size=rank).map(tuple)
    return st.dictionaries(keys, coeffs, max_size=3).map(
        lambda d: sum(
            (ZPoly.monomial(k, rank, c) for k, c in d.items()), ZPoly.zero(rank)
        )
    )


def test_constructors():
    one = ZPoly.one(3)
    assert one.coefficient(()) == ONE
    assert one == ZPoly.monomial((), 3)
    assert ZPoly.zero(3).is_zero()
    assert ZPoly.monomial((1, 0), 3).coefficient((1,)) == ONE
    with pytest.raises(ValueError):
        ZPoly.monomial((1, 2, 3, 4), 3)


def test_swap_vars():
    f = ZPoly.monomial((1, 2), 3)
    assert f.swap_vars(1) == ZPoly.monomial((2, 1), 3)
    assert f.swap_vars(2) == ZPoly.monomial((1, 0, 2), 3)
    assert f.swap_vars(1).swap_vars(1) == f


def test_indices_outside_the_rank_are_refused():
    # swap_vars takes 1..n-1, as hi does, and xi_eigenvalue 1..n, as cherednik_xi does
    for f, i in [(ZPoly.monomial((1,), 3), 0), (ZPoly.monomial((0, 0, 1), 3), 3)]:
        with pytest.raises(ValueError, match="out of range"):
            f.swap_vars(i)
        with pytest.raises(ValueError, match="out of range"):
            f.hi(i)
    for i in (0, 3):
        with pytest.raises(ValueError, match="out of range"):
            xi_eigenvalue((1,), 2, i)
        with pytest.raises(ValueError, match="out of range"):
            cherednik_xi(ZPoly.one(2), i)
    assert xi_eigenvalue((1,), 2, 2) == CoeffPoly.t_power(-1)


def test_hecke_action_on_polynomials():
    # symmetric polynomials are v^{-1}-eigenvectors
    f = ZPoly.monomial((1, 1), 2)
    assert f.hi(1) == f.scale(VINV)
    g = ZPoly.monomial((1,), 2) + ZPoly.monomial((0, 1), 2)
    assert g.hi(1) == g.scale(VINV)


def test_quadratic_and_braid():
    f = ZPoly.monomial((2, 0, 1), 3)
    for i in (1, 2):
        assert f.hi(i).hi(i) == f.hi(i).scale(VINV - V) + f
        assert f.hi(i).hi_inv(i) == f
    assert f.hi(1).hi(2).hi(1) == f.hi(2).hi(1).hi(2)


def test_omega_tilde():
    f = ZPoly.monomial((1, 0, 2), 3)
    assert f.omega_tilde() == ZPoly.monomial((0, 2, 1), 3, Q.bar())
    assert f.omega_tilde().omega_tilde_inv() == f
    assert f.omega_tilde_inv().omega_tilde() == f
    # rotation lowers Hecke indices, same as on the module side
    assert f.hi(2).omega_tilde() == f.omega_tilde().hi(1)


def test_projection_relation():
    # projecting after the rotation turns H_{n-1} into the scalar v^{-1}
    f = ZPoly.monomial((1, 0, 2), 3) + ZPoly.monomial((0, 1, 1), 3).scale(T)
    assert f.hi(2).omega_tilde().project() == f.omega_tilde().project().scale(VINV)
    g = ZPoly.monomial((1, 2), 3) + ZPoly.monomial((0, 0, 2), 3)
    assert g.project() == ZPoly.monomial((1, 2), 2)


def test_psi_intertwines_hecke_action():
    f = ZPoly.monomial((1, 0, 2), 3) + ZPoly.monomial((0, 1, 1), 3).scale(T)
    for i in (1, 2):
        assert to_module(f.hi(i)) == to_module(f).hi(i)
    assert from_module(to_module(f)) == f
    x = ModuleElement.basis((2, 1), 3) + ModuleElement.basis((0, 2), 3).scale(V)
    assert to_module(from_module(x)) == x


def test_psi_unitriangular():
    for d in range(4):
        for lam in compositions_of(d, 3):
            x = to_module(ZPoly.monomial(lam, 3))
            lead = CoeffPoly.v_power(-sorting_data(lam, 3).inversions)
            assert x.coefficient(lam) == lead, lam


def test_bar_polynomial_matches_module_bar():
    f = ZPoly.monomial((1, 0, 2), 3) + ZPoly.monomial((0, 1, 1), 3).scale(V + Q)
    assert to_module(bar_polynomial(f)) == bar_d(to_module(f))
    assert bar_polynomial(bar_polynomial(f)) == f


def test_cherednik_eigenvalues():
    for lam in [(), (1,), (2,), (1, 1), (0, 1)]:
        E = e_monomial(lam, 3)
        p = pad(lam, 3)
        w = sorting_data(lam, 3).images
        for i in (1, 2, 3):
            ev = xi_eigenvalue(lam, 3, i)
            assert ev == CoeffPoly.monomial(1, 2 * (1 - w[i - 1]), p[i - 1])
            assert cherednik_xi(E, i) == E.scale(ev), (lam, i)


def test_xi_on_constants():
    one = ZPoly.one(3)
    for i in (1, 2, 3):
        assert cherednik_xi(one, i) == one.scale(CoeffPoly.t_power(1 - i))


def test_json_round_trip():
    f = ZPoly.monomial((1, 2), 3, ONE - T * Q) + ZPoly.monomial((0, 0, 1), 3, V)
    assert ZPoly.from_json(f.to_json()) == f


def test_raw_keys_that_trim_alike_are_summed():
    assert ZPoly(3, {(0, 1, 0): V, (0, 1): ONE}).terms == {(0, 1): V + ONE}
    assert ZPoly(3, {(2, 0): V, (2,): CoeffPoly.integer(0) - V}).terms == {}
    data = {"rank": 3, "terms": [{"z": "0,1,0", "coef": ONE.to_json()},
                                 {"z": "0,1", "coef": ONE.to_json()}]}
    assert ZPoly.from_json(data).terms == {(0, 1): CoeffPoly.integer(2)}


def test_pretty():
    f = ZPoly.monomial((1,), 2, ONE - T * Q) + ZPoly.monomial((0, 1), 2, ONE - T)
    assert f.pretty() == "(1 - t*q)*z_1 + (1 - t)*z_2"
    assert ZPoly.one(2).pretty() == "1"
    assert ZPoly.zero(2).pretty() == "0"


@given(zpolys(3), st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_hecke_random(f, i):
    assert f.hi(i).hi_inv(i) == f
    assert to_module(f.hi(i)) == to_module(f).hi(i)


@given(zpolys(3))
@settings(max_examples=60, deadline=None)
def test_psi_round_trip_random(f):
    assert from_module(to_module(f)) == f
    assert ZPoly.from_json(f.to_json()) == f


def _patch_psi(monkeypatch, target, change):
    """Make polyrep's psi_monomial return change(psi(z^target)) at target."""
    real = polyrep.psi_monomial

    def psi(mu, n):
        x = real(mu, n)
        return change(x) if canonicalize(mu) == target else x

    monkeypatch.setattr(polyrep, "psi_monomial", psi)


def test_from_module_certifies_that_every_peel_cancels(monkeypatch):
    # a leading coefficient scaled by v leaves a remainder at mu on every
    # peel; without the certificate mu would be peeled forever
    f = sum((ZPoly.monomial(lam, 3, CoeffPoly.integer(k + 1))
             for k, lam in enumerate(compositions_of(3, 3))), ZPoly.zero(3))
    x = to_module(f)
    assert from_module(x) == f
    for mu in f.terms:
        with monkeypatch.context() as patch:
            _patch_psi(patch, mu, lambda y: ModuleElement(
                3, {**y.terms, mu: y.terms[mu].shift(v_exp=1)}))
            with pytest.raises(ConsistencyError, match=re.escape("remainder at M^%r" % (mu,))):
                from_module(x)


def test_from_module_certifies_that_no_peeled_key_comes_back(monkeypatch):
    # the image of the lowest key reaches the top one, peeled before it
    n = 3
    f = sum((ZPoly.monomial(lam, n) for lam in compositions_of(3, n)), ZPoly.zero(n))
    x = to_module(f)
    by_level = sorted(f.terms, key=lambda lam: min_rep_length(lam, n))
    low, top = by_level[0], by_level[-1]
    assert min_rep_length(low, n) < min_rep_length(top, n)
    with monkeypatch.context() as patch:
        _patch_psi(patch, low, lambda y: y + ModuleElement.basis(top, n))
        with pytest.raises(ConsistencyError, match=re.escape("reaches M^%r, not below" % (top,))):
            from_module(x)
