"""Tests for the self-dual basis and its triangular solve."""

import pytest

import qtkostka
from qtkostka import kl as kl_module, packed
from qtkostka.coeffs import CoeffPoly, ConsistencyError, ONE, V, VINV, ZERO
from qtkostka.bruhat import preceq
from qtkostka.compositions import compositions_of, partition_length
from qtkostka.kl import kl_element, skew_positive_part
from qtkostka.kostka import msym_expand
from qtkostka.parabolic import ModuleElement, bar_d, packed_row

T = CoeffPoly.t_power(1)
Q = CoeffPoly.q_power(1)


def test_skew_positive_part():
    assert skew_positive_part(V - VINV) == V
    v2 = CoeffPoly.v_power(2)
    assert skew_positive_part(v2 + V - VINV - v2.bar()) == v2 + V
    assert skew_positive_part(ZERO) == ZERO
    with pytest.raises(ConsistencyError):
        skew_positive_part(ONE)  # not skew
    with pytest.raises(ConsistencyError):
        skew_positive_part(V * Q - VINV * Q.bar())  # involves q


def test_rank2_example():
    el = kl_element((1,), 2).element
    assert el == ModuleElement.basis((1,), 2) + ModuleElement.basis((0, 1), 2).scale(V)
    assert kl_element((1,), 2).element.pretty() == "M^{(1)} + v*M^{(0,1)}"


def test_rank3_example():
    el = kl_element((1,), 3).element
    want = (
        ModuleElement.basis((1,), 3)
        + ModuleElement.basis((0, 1), 3).scale(V)
        + ModuleElement.basis((0, 0, 1), 3).scale(CoeffPoly.v_power(2))
    )
    assert el == want


def test_canonicalization_and_errors():
    assert kl_element((1, 0), 2).element == kl_element((1,), 2).element
    with pytest.raises(ValueError):
        kl_element((1, 2, 3), 2)
    with pytest.raises(ValueError):
        kl_element((1,), 1)


def test_bar_invariance():
    for d in range(4):
        for lam in compositions_of(d, 3):
            el = kl_element(lam, 4).element
            assert bar_d(el) == el, lam


def test_triangular_with_unit_diagonal():
    for d in range(4):
        for lam in compositions_of(d, 3):
            el = kl_element(lam, 4).element
            assert el.coefficient(lam) == ONE, lam
            for nu in el.support():
                assert preceq(nu, lam), (lam, nu)
                if nu != lam:
                    c = el.coefficient(nu)
                    assert c.is_q_free(), (lam, nu)
                    assert c.is_v_polynomial(), (lam, nu)
                    assert c.min_v_exp() >= 1, (lam, nu)


def test_stability_under_projection():
    for d in range(4):
        for lam in compositions_of(d, 3):
            assert kl_element(lam, 4).element.project() == kl_element(lam, 3).element


def test_head_symmetry():
    # the element is m-symmetric past the length of its partition tail
    for lam in [(2,), (1, 1), (2, 1), (0, 2), (1, 0, 1)]:
        m = partition_length(lam)
        el = kl_element(lam, 4).element
        exp = msym_expand(el, m)
        assert exp.m == m and exp.rank == 4
        total = ModuleElement.zero(4)
        # the expansion is faithful: orbit sums with the stored coefficients
        from qtkostka.kostka import msym_basis

        for tau, c in exp.terms.items():
            total = total + msym_basis(tau, m, 4).scale(c)
        assert total == el, lam


def test_partition_bottom_is_plain():
    # a partition key is its own orbit top; q never appears anywhere
    el = kl_element((2, 1), 4).element
    for c in el.terms.values():
        assert c.is_q_free()


@pytest.fixture
def cold():
    """Every memo cleared before and after, so corrupted rows do not leak."""
    qtkostka.clear_caches()
    yield
    qtkostka.clear_caches()


def test_narrowed_packing_width_trips_the_guard(cold, monkeypatch):
    # the solve stops at the first node whose running bound does not fit,
    # before decoding it, not only at the final recheck
    monkeypatch.setattr(packed, "WIDTH", 8)
    with pytest.raises(ConsistencyError, match=r"KL solve of .* 8-bit packing width"):
        kl_element((3, 1), 6)


def _corrupt_each_row_entry(lam, n):
    """Yield once per off-diagonal entry of every row in the solve's support.

    During each yield that entry carries an extra +1 at v^0.  Only the KL
    solve's memo is cleared, so the corrupted row stays in the row memo and
    the next kl_element call solves again over it.
    """
    el = kl_element(lam, n).element
    off = packed.offset(sum(lam), n)
    for mu in sorted(el.terms):
        row = packed_row(mu, n)
        for nu in sorted(row.terms):
            if nu == mu:
                continue
            saved = row.terms[nu]
            row.terms[nu] = saved + (1 << (packed.WIDTH * off))
            kl_module._kl_solve.cache_clear()
            try:
                yield mu, nu
            finally:
                row.terms[nu] = saved
    kl_module._kl_solve.cache_clear()
    assert kl_element(lam, n).element == el


CAUGHT = "not strictly triangular|not bar-skew|not self-dual"


def test_corrupted_row_entry_is_caught(cold):
    count = 0
    for mu, nu in _corrupt_each_row_entry((2, 1), 4):
        with pytest.raises(ConsistencyError, match=CAUGHT):
            kl_element((2, 1), 4)
        count += 1
    assert count > 5


def test_self_duality_recheck_catches_what_the_skew_check_would(cold, monkeypatch):
    # with the per-node skew certificate switched off, the from-scratch
    # self-duality recheck alone still rejects every corrupted row entry
    def positive_part(g):
        return CoeffPoly({e: c for e, c in g.terms.items() if e[0] > 0})

    monkeypatch.setattr(kl_module, "skew_positive_part", positive_part)
    for mu, nu in _corrupt_each_row_entry((2, 1), 4):
        with pytest.raises(ConsistencyError, match="not self-dual"):
            kl_element((2, 1), 4)
