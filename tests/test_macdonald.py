"""Tests for the Macdonald recursion, duality, markings and the symmetric J."""

import pytest

from oracles import e_tilde_chain, e_tilde_full, marked_e_chain, marked_e_full, weyl_sum_bfs
from qtkostka import (
    MSymmetryViolation,
    clear_caches,
    kl_element,
    kostka,
    kostka_via_schur,
    marked_kostka,
    msym_expand,
)
from qtkostka import parabolic
from qtkostka.coeffs import _INTERNED, _PAIRS, _SHIFTS, CoeffPoly, ConsistencyError, ONE, V
from qtkostka.compositions import (
    MarkedDiagram,
    _orbit,
    all_markings,
    compositions_of,
    lambda_star,
)
from qtkostka.kostka import psi_e_polynomial
from qtkostka.macdonald import (
    duality_check,
    e_box_product,
    e_monomial,
    e_orbit,
    e_tilde,
    e_word,
    intertwiner_check,
    marked_e,
    marked_orbit,
    marked_sum_check,
    marked_word,
    _weyl_sum,
    symmetric_j,
    word_orbit,
)
from qtkostka.parabolic import ModuleElement, bar_d

T = CoeffPoly.t_power(1)
Q = CoeffPoly.q_power(1)


def test_e_tilde_rank2_examples():
    res = e_tilde((1,), 2)
    el = res.element
    assert el.coefficient((1,)) == ONE - T * Q
    assert el.coefficient((0, 1)) == V * Q - V * T * Q
    assert el.support() == {(1,), (0, 1)}
    assert res.normalization == ONE - T * Q

    res = e_tilde((0, 1), 2)
    assert res.element == ModuleElement.basis((0, 1), 2).scale(ONE - T * T * Q)


def test_e_tilde_and_marked_e_match_the_chain_oracle():
    # the recursions over the letter rows against the n - m + 1-pass letters
    for d in range(4):
        for lam in compositions_of(d, 3):
            for n in range(max(len(lam), 2), 7):
                assert e_tilde(lam, n).element == e_tilde_chain(lam, n), (lam, n)
                for dg in all_markings(lam):
                    assert marked_e(dg, n) == marked_e_chain(dg, n), (dg, n)


def test_coefficients_of_one_e_tilde_share_their_exponent_pairs():
    clear_caches()
    el = e_tilde((2, 1, 1), 4).element
    first = {}
    repeats = 0
    for c in el.terms.values():
        for e in c.terms:
            if e in first:
                assert first[e] is e, e
                repeats += 1
            else:
                first[e] = e
    assert repeats > 0 and len(first) <= len(_PAIRS)
    # a coefficient shifted off a representative takes its pairs from the table
    forms = [e_orbit((2, 0, 1), 5), kl_element((1, 2), 5)]
    forms += [marked_orbit(d, 5) for d in all_markings((1, 2))]
    shifted = 0
    for x in forms:
        for m in range(x.m, x.rank + 1):
            for key, c in x.expansion(m).terms.items():
                if key not in x.terms:
                    assert all(_PAIRS[e] is e for e in c.terms), (x, m, key)
                    shifted += 1
    assert shifted > 100
    clear_caches()
    assert not _PAIRS


def test_equal_coefficients_of_the_memoized_forms_are_one_object():
    # E~ and every marked E~ of weight <= 3 at two ranks, in orbit form and
    # in full: the letters intern, and the expansion shifts through the memo
    clear_caches()
    held = []
    for extra in (1, 3):
        for _, orbit_form, _, _ in _sweep(3, extra):
            x = orbit_form()
            held.extend(x.terms.values())
            held.extend(x.element.terms.values())
    first = {}
    for c in held:
        assert first.setdefault(c, c) is c, c
    assert len(held) > 5 * len(first)
    clear_caches()


def test_clear_caches_empties_the_intern_shift_and_orbit_memos():
    clear_caches()
    e_orbit((2, 0, 1), 5).element
    assert _INTERNED and _SHIFTS and _orbit.cache_info().currsize
    clear_caches()
    assert not _INTERNED and not _SHIFTS and not _orbit.cache_info().currsize


def _sweep(max_weight, extra):
    """(label, orbit form, full-basis oracle, length of the shape) for E~ and
    every marked E~ of weight <= max_weight and length <= 3 at rank
    max(len + extra, 2); the form and the oracle are built when called."""
    for d in range(max_weight + 1):
        for lam in compositions_of(d, 3):
            n = max(len(lam) + extra, 2)
            yield lam, (lambda lam=lam, n=n: e_orbit(lam, n)), (
                lambda lam=lam, n=n: e_tilde_full(lam, n)), len(lam)
            for dg in all_markings(lam):
                yield dg, (lambda dg=dg, n=n: marked_orbit(dg, n)), (
                    lambda dg=dg, n=n: marked_e_full(dg, n)), len(lam)


def test_orbit_forms_match_the_full_basis_oracle():
    # expanded at every m from the symmetry index up, at two ranks
    count = 0
    for extra in (1, 3):
        for label, orbit_form, oracle, length in _sweep(4, extra):
            x, full = orbit_form(), oracle()
            assert x.m <= length, label
            assert x.element == full, label
            for m in range(x.m, x.rank + 1):
                assert x.expansion(m) == msym_expand(full, m), (label, m)
                count += 1
    assert count > 1000
    # the public results are the expanded orbit forms
    assert e_orbit((2, 0, 1), 5).m == 3
    assert e_tilde((2, 0, 1), 5).element == e_orbit((2, 0, 1), 5).element
    d = MarkedDiagram((2, 1), frozenset({(1, 2)}))
    assert marked_e(d, 4) == marked_orbit(d, 4).element


def _star_chain(lam, n):
    """E~_lambda = (Phi_m - q^{lambda_m} t^a Phibar_m) E~_{lambda*}, recursively."""
    if not lam:
        return ModuleElement(n, {(): ONE}, 0)
    star, m, a = lambda_star(lam)
    return _star_chain(star, n).letters(m, ((False, 1, 0, 0), (True, -1, 2 * a, lam[m - 1])))


def test_the_word_builder_is_the_star_chain():
    count = 0
    for d in range(4):
        for lam in compositions_of(d, 3):
            for n in (max(len(lam) + 1, 2), len(lam) + 3):
                x = word_orbit(e_word(lam), n)
                assert x == _star_chain(lam, n), (lam, n)
                assert x is e_orbit(lam, n)
                for dg in all_markings(lam):
                    assert marked_orbit(dg, n) is word_orbit(marked_word(dg), n)
                count += 1
    assert count == 2 * 20  # 20 compositions of weight <= 3 and length <= 3
    # a word's prefixes are its chain's elements, shared through the memo
    word = e_word((2, 0, 1))
    assert word[:-1] == e_word(lambda_star((2, 0, 1))[0])


def test_a_corrupted_letter_row_fails_the_orbit_row_check(monkeypatch):
    """Each single-entry corruption of a letter row that msym_expand on the
    full elements catches is caught by the orbit-row check, and more."""
    real = parabolic._letter_row
    read = set()

    def use(row_of):
        monkeypatch.setattr(parabolic, "_letter_row", row_of)

    def build(route):
        # the orbit forms, or the full elements (the letter at m = n) under
        # the pairing's msym_expand
        for _, orbit_form, oracle, length in _sweep(3, 2):
            if route == "full":
                msym_expand(oracle(), length)
            else:
                orbit_form()

    def seen(word, barred):
        read.add((word, barred))
        return real(word, barred)

    clear_caches()
    use(seen)
    build("orbit")
    build("full")
    # one entry per term c v^e M^u of a row read
    entries = [(w, b, u, e) for w, b in sorted(read)
               for u, r in sorted(real(w, b).items()) for e, _ in sorted(r.terms)]
    caught = {"orbit": set(), "full": set()}
    for w, b, u, e in entries:
        def corrupt(word, barred, w=w, b=b, u=u, e=e):
            row = real(word, barred)
            if (word, barred) == (w, b):
                row = dict(row)
                row[u] = row[u] + CoeffPoly.v_power(e)
            return row

        for route in caught:
            clear_caches()
            use(corrupt)
            try:
                build(route)
            except ConsistencyError as exc:
                assert isinstance(exc, MSymmetryViolation), exc
                caught[route].add((w, b, u, e))
    use(real)
    clear_caches()
    assert caught["full"] <= caught["orbit"]
    # weight <= 3 at rank len + 2: the row entries, and the corruptions each route catches
    assert (len(entries), len(caught["orbit"]), len(caught["full"])) == (169, 152, 112)


def test_letter_rows_hold_interned_q_free_coefficients(monkeypatch):
    """Every row _letter_row keeps, the recursive ones too, maps keys to the
    interned CoeffPoly of a q-free value."""
    real = parabolic._letter_row
    read = set()

    def seen(word, barred):
        read.add((word, barred))
        return real(word, barred)

    clear_caches()
    monkeypatch.setattr(parabolic, "_letter_row", seen)
    for _, orbit_form, _, _ in _sweep(3, 2):
        orbit_form()
    monkeypatch.setattr(parabolic, "_letter_row", real)
    assert read
    for w, b in read:
        for u, c in real(w, b).items():
            assert isinstance(c, CoeffPoly) and c and c.is_q_free(), (w, b, u)
            assert _INTERNED.get(c) is c, (w, b, u, c)
    clear_caches()


def test_a_cold_kostka_builds_no_full_element(monkeypatch):
    # at m = n the element is the instance's own terms; below it is an expansion
    real = ModuleElement.element.fget

    def refuse(self):
        if self.m < self.rank:
            raise AssertionError("full element of %r built" % ((self.rank, self.m, self.terms),))
        return real(self)

    clear_caches()
    monkeypatch.setattr(ModuleElement, "element", property(refuse))
    assert kostka((3, 1), (2, 2)).value
    for d in all_markings((2, 1, 1)):
        marked_kostka((3, 1), d)
    assert kostka_via_schur((2, 1), (1, 2))
    assert psi_e_polynomial((1, 2))
    monkeypatch.undo()
    clear_caches()


def test_e_tilde_trivial_cases():
    assert e_tilde((), 3).element == ModuleElement.basis((), 3)
    assert e_tilde((), 3).normalization == ONE
    with pytest.raises(ValueError):
        e_tilde((1, 2, 3), 2)


def test_normalization_is_the_box_product():
    assert e_box_product(()) == ONE
    assert e_box_product((1,)) == ONE - T * Q
    assert e_box_product((0, 1)) == ONE - T * T * Q
    for d in range(4):
        for lam in compositions_of(d, 3):
            res = e_tilde(lam, 3)
            assert res.normalization == e_box_product(lam), lam


def test_e_monomial_example():
    f = e_monomial((1,), 2)
    assert f.pretty() == "(1 - t*q)*z_1 + (1 - t)*z_2"
    assert e_monomial((), 2).pretty() == "1"


def test_coefficients_are_polynomial():
    # no negative powers of v or q show up through weight 3
    for d in range(4):
        for lam in compositions_of(d, 3):
            for c in e_tilde(lam, 4).element.terms.values():
                assert c.is_v_polynomial(), lam
                assert c.is_q_polynomial(), lam


def test_q0_specialization_is_the_basis_vector():
    for d in range(4):
        for lam in compositions_of(d, 3):
            el = e_tilde(lam, 4).element
            got = {nu: c.specialize_q0() for nu, c in el.terms.items()}
            got = {nu: c for nu, c in got.items() if not c.is_zero()}
            assert got == {lam: ONE}, lam


def test_stability_under_projection():
    for d in range(4):
        for lam in compositions_of(d, 3):
            assert e_tilde(lam, 4).element.project() == e_tilde(lam, 3).element, lam


def test_duality_factor():
    for d in range(4):
        for lam in compositions_of(d, 3):
            assert duality_check(lam, 4), lam
    assert duality_check((2, 1), 3)


def test_intertwiner():
    for mu, i in [((1,), 1), ((0, 1), 1), ((2, 1), 1), ((1, 2), 2), ((0, 2, 1), 2)]:
        assert intertwiner_check(mu, i, 3), (mu, i)
    with pytest.raises(ValueError):
        intertwiner_check((1, 1), 1, 3)
    with pytest.raises(ValueError):
        intertwiner_check((1,), 5, 3)


def test_marked_e_unmarked_shape_is_the_basis_vector():
    for lam in [(1,), (2, 1), (0, 2)]:
        assert marked_e(MarkedDiagram(lam, frozenset()), 3) == ModuleElement.basis(
            lam, 3
        ), lam


def test_marked_sum_reassembles_e():
    for d in range(4):
        for lam in compositions_of(d, 3):
            assert marked_sum_check(lam, 3), lam
    assert marked_sum_check((2, 1), 4)


def test_marked_sum_refuses_big_shapes():
    with pytest.raises(ValueError):
        marked_sum_check((5, 4), 3)


def test_symmetric_j_small():
    assert symmetric_j((), 2).pretty() == "1"
    j1 = symmetric_j((1,), 2)
    assert j1.coefficient((1,)) == ONE - T
    assert j1.coefficient((0, 1)) == ONE - T
    j11 = symmetric_j((1, 1), 2)
    assert j11.coefficient((1, 1)) == (ONE - T) * (ONE - T * T)
    assert set(j11.terms) == {(1, 1)}
    # J_(2) = (1-t)(1-qt) m_2 + (1-t)^2 (1+q) m_11
    j2 = symmetric_j((2,), 2)
    assert j2.coefficient((2,)) == (ONE - T) * (ONE - Q * T)
    assert j2.coefficient((1, 1)) == (ONE - T) * (ONE - T) * (ONE + Q)
    assert j2.coefficient((2,)) == j2.coefficient((0, 2))


def test_weyl_sum_agrees_with_the_weak_order_walk():
    # the coset product against the breadth-first walk of S_n, on the E~
    # that symmetric_j symmetrizes and on basis elements
    cases = [(mu, n) for n, mus in ((3, ((1,), (2,))), (4, ((1, 1), (2, 1))),
                                    (5, ((1, 1), (2, 1, 1)))) for mu in mus]
    for mu, n in cases:
        low = (0,) * (n - len(mu)) + tuple(sorted(mu))
        x = e_tilde(low, n).element
        assert _weyl_sum(x) == weyl_sum_bfs(x), (mu, n)
    for key, n in (((2, 0, 1), 4), ((0, 1, 2, 0), 4), ((1, 0, 0, 2), 5)):
        x = ModuleElement.basis(key, n)
        assert _weyl_sum(x) == weyl_sum_bfs(x), (key, n)


def test_symmetric_j_rejects_an_asymmetric_result(monkeypatch):
    # skew one coefficient of J_(1) by v as the stabilizer factors are cleared
    exact_div = CoeffPoly.exact_div
    calls = []

    def skewed(self, other):
        calls.append(other)
        out = exact_div(self, other)
        return out.shift(v_exp=1) if len(calls) == 1 else out

    monkeypatch.setattr(CoeffPoly, "exact_div", skewed)
    with pytest.raises(ConsistencyError, match="not symmetric"):
        symmetric_j((1,), 2)
    assert calls


def test_symmetric_j_rejects_non_partitions():
    with pytest.raises(ValueError):
        symmetric_j((1, 2), 3)


def test_duality_is_a_real_involution_statement():
    # the check is not vacuous: bar_d genuinely moves E~ before rescaling
    el = e_tilde((1,), 2).element
    assert bar_d(el) != el
    assert duality_check((1,), 2)


def test_symmetric_j_holds_for_every_partition_of_weight_at_most_4():
    # mu with two part sizes, (2,1), (3,1) and (2,1,1), once failed to divide;
    # J is also stable: setting z_n = 0 gives J at rank n - 1
    for d in range(5):
        for mu in compositions_of(d, d):
            if list(mu) != sorted(mu, reverse=True):
                continue
            low = None
            for n in range(max(len(mu), 2), 5):
                j = symmetric_j(mu, n)
                if low is not None:
                    assert {k: c for k, c in j.terms.items() if len(k) < n} == low.terms, (mu, n)
                low = j
