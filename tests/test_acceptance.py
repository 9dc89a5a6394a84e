"""Shipping checklist: one test per acceptance criterion, in order.

Every test prints a single CRITERION line (visible under pytest -s; the -v
test ids carry the same numbering).  The timed criteria clear all caches
first so the budgets are measured cold.
"""

import contextlib
import itertools
import time

import sympy
from click.testing import CliRunner

import oracles
import qtkostka
from qtkostka import (
    all_markings,
    charge_oracle,
    cherednik_xi,
    compositions_of,
    duality_check,
    e_monomial,
    e_tilde,
    format_marked,
    kl_element,
    kostka,
    kostka_q0_check,
    kostka_via_schur,
    leq_affine,
    marked_kostka,
    marking_stats,
    msym_basis,
    pad,
    pair,
    partition_length,
    sorting_data,
    weight,
    xi_eigenvalue,
)
from qtkostka.cli import main as cli_main
from qtkostka.coeffs import ONE, ZERO, CoeffPoly, V
from qtkostka.kostka import _kl_expansion, _quotients
from qtkostka.macdonald import e_word


@contextlib.contextmanager
def criterion(num):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print("CRITERION %d: FAIL" % num)
        raise
    print("CRITERION %d: PASS (%.1fs)" % (num, time.monotonic() - start))


def partitions_of(d):
    return [
        lam
        for lam in compositions_of(d, max(d, 1))
        if all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1)) and (not lam or lam[-1] > 0)
    ]


def test_criterion_01_kostka_31_22():
    with criterion(1):
        qtkostka.clear_caches()
        start = time.monotonic()
        value = kostka((3, 1), (2, 2)).value
        wall = time.monotonic() - start
        assert value == CoeffPoly({(2, 0): 1, (2, 1): 1, (4, 1): 1})  # t + tq + t^2 q
        assert wall < 5.0, wall


def test_criterion_02_kostka_311_221_with_marked_refinement():
    with criterion(2):
        qtkostka.clear_caches()
        start = time.monotonic()
        value = kostka((3, 1, 1), (2, 2, 1)).value
        rows = {}
        for d in all_markings((2, 2, 1)):
            a_stat, _ = marking_stats(d)
            rows[format_marked(d)] = marked_kostka((3, 1, 1), d).shift(q_exp=a_stat)
        wall = time.monotonic() - start
        # t + (t + 2t^2 + t^3) q + t^3 q^2
        assert value == CoeffPoly({(2, 0): 1, (2, 1): 1, (4, 1): 2, (6, 1): 1, (6, 2): 1})
        expected = {
            "2,2,1|": CoeffPoly({(2, 0): 1}),  # t
            "2,2,1|1.2": CoeffPoly({(4, 1): 1, (6, 1): 1}),  # (t^2 + t^3) q
            "2,2,1|2.2": CoeffPoly({(2, 1): 1, (4, 1): 1}),  # (t + t^2) q
            "2,2,1|1.2,2.2": CoeffPoly({(6, 2): 1}),  # t^3 q^2
        }
        assert {k: p for k, p in rows.items() if not p.is_zero()} == expected
        assert sum(rows.values(), ZERO) == value
        assert wall < 30.0, wall


def test_criterion_03_q0_specialization_equals_kl_vector():
    with criterion(3):
        for d in range(5):
            cap = None if d <= 3 else d + 2
            for lam in compositions_of(d, 4):
                assert kostka_q0_check(lam, max_len=cap), lam


def test_criterion_04_q0_of_e_is_the_basis_vector():
    with criterion(4):
        for d in range(5):
            for mu in compositions_of(d, 4):
                el = e_tilde(mu, max(len(mu) + 1, 2)).element
                got = {nu: c.specialize_q0() for nu, c in el.terms.items()}
                assert {nu: c for nu, c in got.items() if not c.is_zero()} == {mu: ONE}, mu


def test_criterion_05_xi_eigenvalues():
    with criterion(5):
        n = 4
        for d in range(4):
            for lam in compositions_of(d, n):
                E = e_monomial(lam, n)
                p = pad(lam, n)
                w = sorting_data(lam, n).images
                for i in range(1, n + 1):
                    ev = xi_eigenvalue(lam, n, i)
                    assert ev == CoeffPoly.monomial(1, 2 * (1 - w[i - 1]), p[i - 1])
                    assert cherednik_xi(E, i) == E.scale(ev), (lam, i)


def test_criterion_06_duality_factor():
    with criterion(6):
        for d in range(5):
            for lam in compositions_of(d, 4):
                assert duality_check(lam, 5), lam


def test_criterion_07_mpart_descent_rule():
    with criterion(7):
        checked = 0
        for d in range(5):
            comps = set(compositions_of(d, 4))
            for lam in comps:
                for mu in comps:
                    for i in range(1, len(mu) + 1):
                        mpad = pad(mu, max(len(mu), i + 1))
                        if mpad[i - 1] <= mpad[i]:
                            continue
                        lpad = pad(lam, max(len(lam), i + 1))
                        if lpad[i - 1] < lpad[i]:
                            continue
                        swapped = list(mpad)
                        swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
                        while swapped and swapped[-1] == 0:
                            swapped.pop()
                        swapped = tuple(swapped)
                        if swapped not in comps:
                            continue
                        lhs = kostka(lam, swapped).value
                        assert lhs == kostka(lam, mu).value * V, (lam, mu, i)
                        checked += 1
        assert checked > 400, checked


def _weight2_table_by_gram_schmidt():
    """K(q,t) at weight 2 from scratch: sympy arithmetic in the power-sum
    basis, Gram-Schmidt against monomials, then the (q,t) and t pairings."""
    q, t = sympy.symbols("q t")
    # coordinates (a, b) stand for a*p_{2} + b*p_{1}^2
    gram_qt = {
        (0, 0): 2 * (1 - q**2) / (1 - t**2),
        (1, 1): 2 * (1 - q) ** 2 / (1 - t) ** 2,
    }
    gram_t = {(0, 0): sympy.S(2) / (1 - t**2), (1, 1): 2 / (1 - t) ** 2}

    def dot(g, x, y):
        return sympy.cancel(g[(0, 0)] * x[0] * y[0] + g[(1, 1)] * x[1] * y[1])

    m2 = (sympy.S(1), sympy.S(0))
    m11 = (sympy.Rational(-1, 2), sympy.Rational(1, 2))
    s2 = (sympy.Rational(1, 2), sympy.Rational(1, 2))
    s11 = m11
    # P_{1,1} = m_{1,1}; P_2 = m_2 + c m_{1,1} orthogonal to it under <,>_{q,t}
    c = sympy.cancel(-dot(gram_qt, m2, m11) / dot(gram_qt, m11, m11))
    p2_mac = (m2[0] + c * m11[0], m2[1] + c * m11[1])
    j = {
        (2,): tuple((1 - q * t) * (1 - t) * x for x in p2_mac),
        (1, 1): tuple((1 - t**2) * (1 - t) * x for x in m11),
    }
    schur = {(2,): s2, (1, 1): s11}
    return {
        (lam, mu): sympy.expand(sympy.cancel(dot(gram_t, schur[lam], j[mu])))
        for lam in schur
        for mu in j
    }, (q, t)


def _to_sympy(value, q, t):
    out = sympy.S(0)
    for (a, b), c in value.terms.items():
        assert a % 2 == 0, value
        out += c * q**b * t ** (a // 2)
    return out


def test_criterion_08_partition_routes():
    with criterion(8):
        table, (q, t) = _weight2_table_by_gram_schmidt()
        assert table == {
            ((2,), (2,)): sympy.S(1),
            ((2,), (1, 1)): t,
            ((1, 1), (2,)): q,
            ((1, 1), (1, 1)): sympy.S(1),
        }
        for (lam, mu), want in table.items():
            assert _to_sympy(kostka(lam, mu).value, q, t) == want, (lam, mu)
        for d in range(5):
            for lam in partitions_of(d):
                for mu in partitions_of(d):
                    value = kostka(lam, mu).value
                    assert value.specialize_q0() == charge_oracle(lam, mu), (lam, mu)
                    assert kostka_via_schur(lam, mu) == value, (lam, mu)


def test_criterion_09_scan_weight_4_is_clean():
    with criterion(9):
        qtkostka.clear_caches()
        start = time.monotonic()
        r = CliRunner().invoke(cli_main, ["scan", "--max-weight", "4"])
        wall = time.monotonic() - start
        assert r.exit_code == 0, r.output
        summary = r.output.strip().splitlines()[-1]
        assert summary.startswith("pairs=1742 violations=0"), summary
        assert wall < 600.0, wall


def test_criterion_10_rank_stability():
    with criterion(10):
        for d in range(5):
            for lam in compositions_of(d, 4):
                n = max(len(lam) + 1, 3)
                assert e_tilde(lam, n + 1).element.project() == e_tilde(lam, n).element, lam
                assert kl_element(lam, n + 1).element.project() == kl_element(lam, n).element, lam

        def still_stable(lam, mu):
            m = max(partition_length(lam), len(mu))
            n = max(m + weight(lam) + 1, 2)
            want = kostka(lam, mu).value  # already certified at ranks n and n+1
            return pair(_kl_expansion(lam, m, n + 2), _quotients(e_word(mu), m, n + 2)) == want

        for d in range(4):
            for lam in compositions_of(d, 3):
                for mu in compositions_of(d, 3):
                    assert still_stable(lam, mu), (lam, mu)
        for lam in partitions_of(4):
            for mu in partitions_of(4):
                assert still_stable(lam, mu), (lam, mu)


def test_criterion_11_affine_order_matches_brute_force():
    with criterion(11):
        box = list(itertools.product(range(-2, 3), repeat=3))
        stripped = {}
        for tau in box:
            x, _ = oracles.min_rep(tau)
            stripped[tau] = oracles.gmul(oracles.omega_power(-oracles.component(x), 3), x)
        for eta in box:
            y, _ = oracles.min_rep(eta)
            down = oracles.lower_interval(y)
            s = sum(eta)
            for tau in box:
                want = sum(tau) == s and stripped[tau] in down
                assert leq_affine(tau, eta) == want, (tau, eta)


def test_criterion_12_truncated_pairing_normalization():
    with criterion(12):
        for d in range(4):
            for lam in partitions_of(d):
                x = msym_basis(lam, 0, 8)
                diff = pair(x, x) * CoeffPoly.b_partition(lam) - ONE
                assert diff.is_zero() or diff.min_v_exp() >= 8, (lam, diff)
