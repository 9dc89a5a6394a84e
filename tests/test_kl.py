"""Tests for the self-dual basis and its triangular solve in the orbit basis."""

import pickle

import pytest

import oracles
import qtkostka
from qtkostka import kl as kl_module, msym_expand, parabolic
from qtkostka.coeffs import _INTERNED, CoeffPoly, ConsistencyError, ONE, V, VINV, ZERO
from qtkostka.bruhat import min_rep_length, preceq
from qtkostka.compositions import canonicalize, compositions_of, pad, partition_length
from qtkostka.kl import KLElement, kl_element, skew_positive_part
from qtkostka.kostka import msym_basis
from qtkostka.parabolic import ModuleElement, bar_d, d_basis

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
    oracles.kl_solve_full.cache_clear()
    yield
    qtkostka.clear_caches()
    oracles.kl_solve_full.cache_clear()


def _differential_cases():
    for d in range(5):
        for lam in compositions_of(d, 4):
            for n in range(max(len(lam), 2), (8 if d <= 3 else 7) + 1):
                yield lam, n
    yield (3, 1, 1), 9
    yield (3, 1, 1), 10


def test_quotient_solve_matches_the_full_rank_solve(cold):
    # every expansion that kostka pairs, and the full element, against the
    # solve over the whole rank-n support
    count = 0
    for lam, n in _differential_cases():
        want = oracles.kl_solve_full(lam, n)
        got = kl_element(lam, n)
        assert got.element == want, (lam, n)
        for m in range(partition_length(lam), n + 1):
            # at m = got.m the expansion is got itself, a KLElement
            x, y = got.expansion(m), msym_expand(want, m)
            assert (x.rank, x.m, x.terms) == (y.rank, y.m, y.terms), (lam, m, n)
            count += 1
    assert count > 1500


def test_expansion_below_the_symmetry_index_is_refused():
    with pytest.raises(ValueError):
        kl_element((0, 1), 3).expansion(0)


def test_orbit_rows_are_the_bar_involution_in_the_orbit_basis():
    # R[tau] is d(M^{tau|m}) expanded over the orbit sums
    count = 0
    for n in (4, 5, 6):
        for d in range(4):
            for tau in compositions_of(d, n):
                for m in range(partition_length(tau), n + 1):
                    want = msym_expand(bar_d(msym_basis(tau, m, n)), m).terms
                    assert kl_module._orbit_row(tau, m, n) == want, (tau, m, n)
                    count += 1
    assert count > 400


def test_cold_solve_builds_few_involution_rows(cold):
    # the full-rank solve built all 1847 rows of the support closure of
    # (3,1,1) at rank 10; the quotient solve keeps only the rows it reads,
    # one per orbit row, and every coefficient in them is the one interned
    # object of its value (symmetry index m0 = 0 and 2)
    for lam, n, count in (((3, 1, 1), 10, 4), ((2, 0, 1), 5, 9)):
        qtkostka.clear_caches()
        m = kl_element(lam, n).m
        rows = parabolic._d_row.cache_info().currsize
        assert rows == kl_module._orbit_row.cache_info().currsize == count, lam
        closure, frontier = set(), [lam]
        while frontier:
            tau = frontier.pop()
            if tau not in closure:
                closure.add(tau)
                frontier.extend(kl_module._orbit_row(tau, m, n))
        assert len(closure) == rows, lam
        for tau in closure:
            for c in d_basis(_bottom(tau, m, n), n).terms.values():
                assert _INTERNED.get(c) is c, (lam, tau, c)
        assert parabolic._d_row.cache_info().currsize == rows, lam


def _bottom(tau, m, n):
    p = pad(tau, n)
    return canonicalize(p[:m] + tuple(sorted(p[m:])))


def _clear_solve_memos():
    kl_module._orbit_row.cache_clear()
    kl_module._quotient_solve.cache_clear()


def _corrupt_each_row_entry(lam, n):
    """Yield once per off-diagonal entry of every involution row the solve reads.

    Those are the rows of the bottom keys kappa0 of the representatives with
    a nonzero coefficient.  During each yield that entry of the row in the
    d_basis memo carries an extra +1 at v^0.  Only the solve's memos are
    cleared, so the corrupted row stays in the row memo and the next
    kl_element call solves again over it.
    """
    el = kl_element(lam, n)
    for tau in sorted(el.terms):
        bottom = _bottom(tau, el.m, n)
        row = d_basis(bottom, n)
        for nu in sorted(row.terms):
            if nu == bottom:
                continue
            saved = row.terms[nu]
            row.terms[nu] = saved + ONE
            _clear_solve_memos()
            try:
                yield tau, nu
            finally:
                row.terms[nu] = saved
    _clear_solve_memos()
    assert kl_element(lam, n) == el


# lambdas with symmetry index m0 = 0, 1 and 2
CORRUPTED = [((3, 1), 5), ((1, 2), 5), ((1, 1, 2), 5), ((1, 0, 2), 5), ((2, 0, 1), 5)]
CAUGHT = "bad diagonal|not strictly triangular|does not divide|not bar-skew|not self-dual"


def test_corrupted_row_entry_is_caught(cold):
    for lam, n in CORRUPTED:
        count = 0
        for tau, nu in _corrupt_each_row_entry(lam, n):
            with pytest.raises(ConsistencyError, match=CAUGHT):
                kl_element(lam, n)
            count += 1
        assert count > 5, lam


def _positive_part(g):
    return CoeffPoly({e: c for e, c in g.terms.items() if e[0] > 0})


def test_self_duality_recheck_catches_what_the_skew_check_would(cold, monkeypatch):
    # with the per-node skew certificate switched off, the from-scratch
    # self-duality recheck alone still rejects every corrupted row entry
    # that the skew check caught
    for lam, n in CORRUPTED:
        count = 0
        for tau, nu in _corrupt_each_row_entry(lam, n):
            with pytest.raises(ConsistencyError) as caught:
                kl_element(lam, n)
            if "not bar-skew" not in str(caught.value):
                continue
            _clear_solve_memos()
            with monkeypatch.context() as patch:
                patch.setattr(kl_module, "skew_positive_part", _positive_part)
                with pytest.raises(ConsistencyError, match="not self-dual"):
                    kl_element(lam, n)
            count += 1
        assert count > 0, lam


def test_wrong_s_factor_is_caught(cold, monkeypatch):
    # s_tau off by a factor v at one representative below the top
    real = kl_module._s_factor

    def wrong(tau, m, n):
        s = real(tau, m, n)
        return s * V if tau == (1, 1, 1) else s

    monkeypatch.setattr(kl_module, "_s_factor", wrong)
    with pytest.raises(ConsistencyError):
        kl_element((2, 1), 4)


def test_off_by_one_tail_inversions_are_caught(cold, monkeypatch):
    # l(kappa) one too large at every key off its orbit's representative
    real = kl_module._tail_inversions

    def off_by_one(tail):
        return real(tail) + (list(tail) != sorted(tail, reverse=True))

    monkeypatch.setattr(kl_module, "_tail_inversions", off_by_one)
    with pytest.raises(ConsistencyError):
        kl_element((2, 1), 4)


def test_division_remainder_is_caught(cold, monkeypatch):
    # with s_tau scaled by 1 + 2v, bar(s_tau) leaves a remainder on the diagonal
    real = kl_module._s_factor
    monkeypatch.setattr(
        kl_module, "_s_factor", lambda tau, m, n: real(tau, m, n) * (ONE + V * CoeffPoly.integer(2))
    )
    with pytest.raises(ConsistencyError, match="does not divide"):
        kl_element((2, 1), 4)


def test_corrupted_orbit_row_shape_is_caught(cold):
    # an orbit row with an entry above its diagonal, or a diagonal other than 1
    lam, n = (2, 1), 4
    el = kl_element(lam, n)
    below = min(el.terms, key=lambda tau: min_rep_length(tau, n))
    for corrupt, message in [
        (lambda row: row.__setitem__(lam, V), "not strictly triangular"),
        (lambda row: row.__setitem__(below, V), "bad diagonal"),
    ]:
        _clear_solve_memos()
        corrupt(kl_module._orbit_row(below, el.m, n))
        kl_module._quotient_solve.cache_clear()
        with pytest.raises(ConsistencyError, match=message):
            kl_element(lam, n)


def test_kl_element_is_read_only_unhashable_and_pickles():
    el = kl_element((2, 1), 4)
    with pytest.raises(AttributeError):
        el.terms = {}
    with pytest.raises(AttributeError):
        del el.lam
    with pytest.raises(TypeError):
        hash(el)
    # pickling is kept as API
    back = pickle.loads(pickle.dumps(el))
    assert type(back) is KLElement and back == el and back.lam == (2, 1)
    # equality reads the class and lam as well as the terms
    assert KLElement(el.rank, el.terms, el.m, (1, 2)) != el
    assert ModuleElement(el.rank, el.terms, el.m) != el
