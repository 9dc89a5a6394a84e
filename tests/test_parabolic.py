"""Tests for the induced module: Hecke action, rotation, and the bar involution."""

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import PHI, PHIBAR, d_basis_word, full_orbit_image, letter_chain
from qtkostka.coeffs import CoeffPoly, ONE, V, VINV, ZERO
from qtkostka.compositions import all_markings, compositions_of, pad, partition_length, swap
from qtkostka.macdonald import e_orbit, marked_orbit
from qtkostka.bruhat import preceq
from qtkostka.memo import clear_caches
from qtkostka.kl import KLElement, kl_element
from qtkostka.parabolic import (
    ModuleElement,
    _orbit_image,
    _tail_image,
    bar_d,
    d_basis,
    d_word,
    psi_monomial,
    msym_expand,
    word_orbit,
)
from qtkostka.polyrep import ZPoly, from_module

T = CoeffPoly.t_power(1)
Q = CoeffPoly.q_power(1)

coeffs = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-1, 1)),
    st.integers(-3, 3),
    max_size=3,
).map(CoeffPoly)


def elements(rank):
    keys = st.lists(st.integers(0, 3), min_size=0, max_size=rank).map(tuple)
    return st.dictionaries(keys, coeffs, max_size=3).map(
        lambda d: sum(
            (ModuleElement.basis(k, rank).scale(c) for k, c in d.items()),
            ModuleElement.zero(rank),
        )
    )


def test_basis_and_accessors():
    x = ModuleElement.basis((1,), 3)
    assert x.coefficient((1,)) == ONE
    assert x.coefficient((0, 1)) == ZERO
    assert x.support() == {(1,)}
    assert not x.is_zero()
    assert ModuleElement.zero(3).is_zero()
    with pytest.raises(ValueError):
        ModuleElement.basis((1, 2, 3, 4), 3)


def test_hecke_action_cases():
    # ascent: plain swap; tie: eigenvalue v^{-1}; descent: swap plus (v^{-1}-v)
    x = ModuleElement.basis((1, 2), 3)
    assert x.hi(1) == ModuleElement.basis((2, 1), 3)
    y = ModuleElement.basis((1, 1), 3)
    assert y.hi(1) == y.scale(VINV)
    z = ModuleElement.basis((2, 1), 3)
    assert z.hi(1) == ModuleElement.basis((1, 2), 3) + z.scale(VINV - V)


def test_quadratic_relation():
    # (H_i + v)(H_i - v^{-1}) = 0
    for lam in [(1, 2), (2, 1), (1, 1), (0, 2, 1)]:
        x = ModuleElement.basis(lam, 3)
        for i in (1, 2):
            lhs = x.hi(i).hi(i)
            rhs = x.hi(i).scale(VINV - V) + x
            assert lhs == rhs, (lam, i)


def test_braid_relations():
    for lam in compositions_of(3, 4):
        x = ModuleElement.basis(lam, 4)
        assert x.hi(1).hi(2).hi(1) == x.hi(2).hi(1).hi(2), lam
        assert x.hi(2).hi(3).hi(2) == x.hi(3).hi(2).hi(3), lam
        assert x.hi(1).hi(3) == x.hi(3).hi(1), lam


def test_hi_inv_is_inverse():
    for lam in compositions_of(3, 3):
        x = ModuleElement.basis(lam, 3)
        for i in (1, 2):
            assert x.hi(i).hi_inv(i) == x, (lam, i)
            assert x.hi_inv(i).hi(i) == x, (lam, i)


def test_omega_relations():
    x = ModuleElement.basis((2, 0, 1), 3)
    assert x.omega() == ModuleElement.basis((0, 1, 3), 3)
    # the rotation lowers Hecke indices: omega H_i = H_{i-1} omega
    for lam in compositions_of(2, 3):
        y = ModuleElement.basis(lam, 3)
        assert y.hi(2).omega() == y.omega().hi(1), lam


def test_operator_words():
    # Phi_m = H_m ... H_{n-1} omega applied right to left
    x = ModuleElement.basis((1,), 3)
    assert x.letters(3, PHI) == x.omega()
    assert x.letters(2, PHI) == x.omega().hi(2)
    assert x.letters(1, PHI) == x.omega().hi(2).hi(1)
    assert x.letters(2, PHIBAR) == x.omega().hi_inv(2)
    # Z_1 = H_1^{-1} ... H_{n-1}^{-1} omega
    assert x.z_op(1) == x.omega().hi_inv(2).hi_inv(1)
    assert x.z_op(2) == x.hi(1).omega().hi_inv(2)


def _letter_inputs():
    """(label, element, orbit form or None): basis elements of weight <= 4 at
    ranks 2-8, seeded random (v,q) combinations of weight <= 4 keys at every
    rank, and E~ and marked E~ of weight <= 3 at ranks up to 6 with their
    orbit forms."""
    rng = random.Random(7)
    for n in range(2, 9):
        keys = [lam for d in range(5) for lam in compositions_of(d, n)]
        for lam in keys:
            yield ("basis", lam, n), ModuleElement.basis(lam, n), None
        for k in range(6):
            terms = {}
            for lam in rng.sample(keys, min(len(keys), 4)):
                terms[lam] = CoeffPoly({
                    (rng.randint(-3, 3), rng.randint(0, 2)): rng.choice([-2, -1, 1, 3])
                    for _ in range(3)
                })
            yield ("random", k, n), ModuleElement(n, terms), None
        if n > 6:
            continue
        for d in range(4):
            for lam in compositions_of(d, min(n, 3)):
                form = e_orbit(lam, n)
                yield ("e", lam, n), form.element, form
                for dg in all_markings(lam):
                    form = marked_orbit(dg, n)
                    yield ("marked", dg, n), form.element, form


def test_letters_match_the_chain_oracle():
    # the one orbit letter against the n - m + 1 generator passes: at m = n
    # on every input, and at their own symmetry index on E~ and marked E~
    count = 0
    rng = random.Random(11)
    for label, x, form in _letter_inputs():
        n = x.rank
        for m in range(1, n + 1):
            phi = letter_chain(x, m, False)
            phibar = letter_chain(x, m, True)
            assert x.letters(m, PHI) == phi, (label, m)
            assert x.letters(m, PHIBAR) == phibar, (label, m)
            ka, a = rng.choice([-1, 2]), (rng.randint(-2, 2), rng.randint(0, 2))
            kb, b = rng.choice([-1, 2]), (rng.randint(-2, 2), rng.randint(0, 2))
            both = ((False, ka) + a, (True, kb) + b)
            want = phi.scale(CoeffPoly.monomial(ka, *a)) + phibar.scale(CoeffPoly.monomial(kb, *b))
            assert x.letters(m, both) == want, (label, m)
            if form is not None:
                assert form.letters(m, PHI).element == phi, (label, m)
                assert form.letters(m, PHIBAR).element == phibar, (label, m)
                y = form.letters(m, both)
                assert y.m == max(form.m, m) and y.element == want, (label, m)
            count += 1
    assert count > 10000


def test_orbit_images_match_the_full_orbit_walk():
    # every representative of weight <= 3 at every c <= m <= n <= 5, both letters
    count = 0
    for n in range(2, 6):
        for d in range(4):
            for tau in compositions_of(d, n):
                for m in range(max(partition_length(tau), 1), n + 1):
                    for c in range(1, m + 1):
                        for barred in (False, True):
                            want = full_orbit_image(tau, m, c, n, barred)
                            assert _orbit_image(tau, m, c, n, barred) == want, (tau, m, c, n)
                            count += 1
    assert count == 2276


def test_a_letter_below_its_index_equals_the_letter_on_the_form_read_at_it():
    # below c each orbit is walked at c inside the letter, with its offsets
    mixed = ((False, 2, 1, 0), (True, -1, 2, 1))
    count = 0
    for label, _, form in _letter_inputs():
        if form is None:
            continue
        for c in range(form.m + 1, form.rank + 1):
            for letters in (PHI, PHIBAR, mixed):
                assert form.letters(c, letters) == form.expansion(c).letters(c, letters), (label, c)
                count += 1
    assert count > 1000


def test_heads_that_differ_only_before_the_letter_share_one_tail_image():
    # at m = c = 3, rank 5: omega*(1, a, b, 2, 1) = (a, b, 2, 1, 2), so every
    # (a, b) reads the tail image of the word (2, 1, 2); tau_1 = 2 does not
    clear_caches()
    first = _orbit_image((1, 0, 0, 2, 1), 3, 3, 5, False)
    tail = {sigma[2:]: r for sigma, r in first.items()}
    before = _tail_image.cache_info()
    for a, b in ((2, 0), (0, 3), (1, 1)):
        image = _orbit_image((1, a, b, 2, 1), 3, 3, 5, False)
        assert image == {(a, b) + u: r for u, r in tail.items()}
        assert all(r is tail[sigma[2:]] for sigma, r in image.items())
    after = _tail_image.cache_info()
    assert before.currsize == after.currsize == 1
    assert after.hits == before.hits + 3
    _orbit_image((2, 0, 0, 2, 1), 3, 3, 5, False)
    assert _tail_image.cache_info().currsize == 2
    clear_caches()


def test_expansion_at_its_own_index_is_the_element_itself():
    # instances are immutable, so reading at one's own m copies nothing
    from qtkostka.kl import kl_element

    for form in (e_orbit((2, 0, 1), 5), kl_element((1, 2), 5), ModuleElement(3, {(1,): ONE})):
        assert form.expansion(form.m) is form
        if form.m < form.rank:
            assert form.expansion(form.m + 1) is not form


def test_a_letter_index_outside_the_rank_is_refused():
    # both ends, on the full basis (m = n) and on an orbit form below it
    for form in (ModuleElement(3, {(1,): ONE}), e_orbit((1,), 3)):
        for c in (0, form.rank + 1):
            for letters in (PHI, PHIBAR):
                with pytest.raises(ValueError, match="out of range"):
                    form.letters(c, letters)


def test_projection():
    x = ModuleElement.basis((1, 2), 4) + ModuleElement.basis((0, 0, 0, 2), 4).scale(T)
    p = x.project()
    assert p.rank == 3
    assert p == ModuleElement.basis((1, 2), 3)
    with pytest.raises(ValueError):
        ModuleElement.basis((), 2).project()


def test_d_basis_examples():
    # d fixes the bottom basis vector of each rank
    assert d_basis((), 3) == ModuleElement.basis((), 3)
    el = d_basis((1,), 2)
    assert el.coefficient((1,)) == ONE
    sup = el.support()
    assert all(preceq(nu, (1,)) for nu in sup)


def test_d_basis_agrees_with_word_route():
    # the orbit-letter word and the generator-pass word must give the same rows
    for n in (3, 4, 5, 6):
        for d in range(5):
            for lam in compositions_of(d, n):
                assert d_basis(lam, n) == d_basis_word(lam, n), (lam, n)


def test_d_is_an_involution():
    for d in range(4):
        for lam in compositions_of(d, 3):
            x = ModuleElement.basis(lam, 3)
            assert bar_d(bar_d(x)) == x, lam


def test_d_triangular_with_unit_diagonal():
    for d in range(4):
        for lam in compositions_of(d, 3):
            el = d_basis(lam, 3)
            assert el.coefficient(lam) == ONE
            for nu in el.support():
                assert preceq(nu, lam), (lam, nu)


def test_bar_d_is_semilinear():
    # bar(H_i x) = H_i^{-1} bar(x), and coefficients get bar-conjugated
    x = ModuleElement.basis((2, 1), 3).scale(V + Q) + ModuleElement.basis((0, 2), 3)
    for i in (1, 2):
        assert bar_d(x.hi(i)) == bar_d(x).hi_inv(i)
    y = ModuleElement.basis((1,), 3).scale(V)
    assert bar_d(y) == d_basis((1,), 3).scale(VINV)


def test_psi_monomial_triangular():
    for d in range(4):
        for lam in compositions_of(d, 3):
            el = psi_monomial(lam, 3)
            from qtkostka.compositions import sorting_data

            lead = CoeffPoly.v_power(-sorting_data(lam, 3).inversions)
            assert el.coefficient(lam) == lead, lam
            for nu in el.support():
                assert preceq(nu, lam), (lam, nu)


def test_json_round_trip():
    x = ModuleElement.basis((1, 0, 2), 4).scale(ONE - T * Q) + ModuleElement.basis(
        (2,), 4
    ).scale(V)
    data = x.to_json()
    assert ModuleElement.from_json(data) == x
    assert data["rank"] == 4


def test_raw_keys_that_trim_alike_are_summed():
    # (1, 0) and (1,) are one key: their coefficients add, and a zero sum drops
    assert ModuleElement(3, {(1, 0): ONE, (1,): ONE}).terms == {(1,): ONE + ONE}
    assert ModuleElement(3, {(1, 0): ONE, (1,): ZERO - ONE, (2,): V}).terms == {(2,): V}
    data = {"rank": 3, "terms": [{"lambda": "1,0", "coef": V.to_json()},
                                 {"lambda": "1", "coef": ONE.to_json()}]}
    assert ModuleElement.from_json(data).terms == {(1,): V + ONE}


def test_pretty():
    x = ModuleElement.basis((1,), 2) + ModuleElement.basis((0, 1), 2).scale(V)
    assert x.pretty() == "M^{(1)} + v*M^{(0,1)}"
    assert ModuleElement.zero(2).pretty() == "0"
    assert ModuleElement.basis((), 2).pretty() == "1"


def test_repr_shows_an_index_below_the_rank():
    # one element at two indices: unequal, so they must not print alike
    one, two = (ModuleElement(3, {(1,): ONE}, m) for m in (1, 2))
    assert one != two
    assert repr(one) == "ModuleElement(rank=3, m=1, M^{(1)})"
    assert repr(two) == "ModuleElement(rank=3, m=2, M^{(1)})"
    assert repr(ModuleElement(3, {(1,): ONE})) == "ModuleElement(rank=3, M^{(1)})"


def test_vectors_over_different_bases_do_not_add():
    x = ModuleElement.basis((1,), 3)
    z = ZPoly.monomial((1,), 3)
    for a, b in ((x, z), (z, x)):
        with pytest.raises(ValueError, match="different bases"):
            a + b
        with pytest.raises(ValueError, match="different bases"):
            a - b
    # a KL element is an element of the module: it adds to one
    kl = kl_element((1,), 3)
    assert (kl + x) - x == kl.element
    assert (x + kl).coefficient((1,)) == ONE + ONE


@given(elements(3), st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_hi_roundtrip_random(x, i):
    assert x.hi(i).hi_inv(i) == x


def _hecke_by_product(x, i, inverse):
    """H_i x (H_i^{-1} x if inverse) case by case, every echo through CoeffPoly.__mul__."""
    out = ModuleElement.zero(x.rank)
    for lam, c in x.terms.items():
        p = pad(lam, x.rank)
        if p[i - 1] == p[i]:
            out = out + ModuleElement.basis(lam, x.rank).scale(c * VINV)
        else:
            out = out + ModuleElement.basis(swap(lam, i), x.rank).scale(c)
            if p[i - 1] > p[i]:
                out = out + ModuleElement.basis(lam, x.rank).scale(c * (VINV - V))
    if inverse:
        out = out + x.scale(V - VINV)
    return out


@given(elements(4), st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_two_shift_echo_matches_the_general_product(x, i):
    assert x.hi(i) == _hecke_by_product(x, i, False)
    assert x.hi_inv(i) == _hecke_by_product(x, i, True)


@given(elements(3))
@settings(max_examples=40, deadline=None)
def test_bar_d_involution_random(x):
    assert bar_d(bar_d(x)) == x


@given(elements(3))
@settings(max_examples=60, deadline=None)
def test_json_round_trip_random(x):
    assert ModuleElement.from_json(x.to_json()) == x


def test_orbit_element_is_read_only_and_unhashable():
    x = ModuleElement(3, {(1,): ONE}, 1)
    with pytest.raises(AttributeError):
        x.m = 2
    with pytest.raises(TypeError):
        hash(x)
    assert x == ModuleElement(3, {(1,): ONE}, 1) != ModuleElement(3, {(1,): ONE}, 2)
    # element is expanded on each read and stored nowhere: the instance has
    # no dict to keep it in, and two reads are two equal objects
    assert not hasattr(x, "__dict__")
    assert x.element == x.element == x.expansion(3) and x.element is not x.element


def _kl_twin():
    el = kl_element((2, 1), 4)
    return el, KLElement(el.rank, el.terms, el.m + 1, el.lam)


@pytest.mark.parametrize("pair", [
    # (instance, an instance equal to it in all but m, or in all but its class)
    lambda: (ZPoly(3, {(1,): V}), ModuleElement(3, {(1,): V})),
    lambda: (ModuleElement(3, {(1,): V}), ModuleElement(3, {(1,): V}, 1)),
    lambda: (ModuleElement(3, {(1,): V}, 1), ModuleElement(3, {(1,): V}, 2)),
    _kl_twin,
], ids=["zpoly", "full", "orbit", "kl"])
def test_one_vector_type_is_read_only_unhashable_and_pickles(pair):
    x, twin = pair()
    for name in ("rank", "terms", "m", "lam", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert not hasattr(x, "__dict__")
    with pytest.raises(TypeError):
        hash(x)
    back = pickle.loads(pickle.dumps(x))
    assert type(back) is type(x) and back == x and back.terms == x.terms
    assert x != twin and twin != x
    # a vector is the tuple of its fields, yet equal to no plain tuple, and
    # no sequence: a key is no member and an integer does not repeat it
    assert x != x[:] and not x == x[:]
    for op in (len, list, lambda x: (1,) in x, lambda x: 2 * x, lambda x: x * 2):
        with pytest.raises(TypeError):
            op(x)
    assert x.element == x.element and type(x.element) in (ZPoly, ModuleElement)


def test_every_standard_basis_operation_below_the_rank_reads_the_expansion():
    # each operation on an m < n element gives its value on expansion(rank),
    # as a plain ModuleElement, never a KLElement without its lambda
    cases = [e_orbit((2, 0, 1), 5), kl_element((1, 2), 5),
             ModuleElement(3, {(1,): V, (2, 1): Q, (0, 3): ONE}, 1)]
    for x in cases:
        n = x.rank
        full = x.expansion(n)
        assert x.m < n and len(full.terms) > len(x.terms) and full.m == n
        y = ModuleElement.basis((1,), n).scale(T)
        pairs = [
            (x.element, full),
            (x.omega(), full.omega()),
            (x + y, full + y), (y + x, y + full), (x - y, full - y), (y - x, y - full),
            (x.scale(Q), full.scale(Q)), (x.scale(ZERO), full.scale(ZERO)),
            (x.project(), full.project()),
            (bar_d(x), bar_d(full)),
        ]
        pairs += [(x.hi(i), full.hi(i)) for i in range(1, n)]
        pairs += [(x.hi_inv(i), full.hi_inv(i)) for i in range(1, n)]
        pairs += [(x.z_op(i), full.z_op(i)) for i in range(1, n + 1)]
        for got, want in pairs:
            assert type(got) is ModuleElement and got == want, x
        assert x.to_json() == full.to_json() and x.pretty() == full.pretty()
        assert x.support() == full.support() and x
        for key in full.terms:
            assert x.coefficient(key) == full.coefficient(key), key
        for m in range(x.m, n + 1):
            got = msym_expand(x, m)
            assert got == msym_expand(full, m) and got.terms == x.expansion(m).terms
        assert from_module(x) == from_module(full)
    with pytest.raises(ValueError):
        ModuleElement(3, {(0, 1, 2): ONE}, 1)  # not a representative for m = 1
    with pytest.raises(ValueError):
        ModuleElement(3, {}, 4)


def test_a_d_basis_row_does_not_share_the_word_orbit_terms():
    # at l(lambda) = n the row is the expansion of the word's orbit form at
    # its own index, which is that form itself
    clear_caches()
    try:
        row = d_basis((1, 1, 1), 3)
        form = word_orbit(d_word((1, 1, 1)), 3)
        assert row.terms is not form.terms
        before = dict(form.terms)
        key = next(iter(row.terms))
        row.terms[key] = row.terms[key] + ONE
        assert form.terms == before
    finally:
        clear_caches()
