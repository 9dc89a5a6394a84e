"""Nonsymmetric Macdonald polynomials in the parabolic module.

The renormalized polynomial E~_lambda is generated by the two-term recursion

    E~_lambda = (Phi_m - q^{lambda_m} t^a Phibar_m)(E~_{lambda*}),

one box at a time along the star chain.  Marked variants replace each factor
by a single word letter (Phi for an unmarked box, -Phibar for a marked one)
and decompose E~ as a q,t-weighted sum over all markings.  The engine also
provides the duality identity, the intertwiner relation and the symmetric
polynomial J_mu, all used as cross-checks downstream.

Words in orbit form.  E~ (the star chain, e_word) and every marked E~
(the box enumeration, marked_word) are words of steps (c, letters) on M^0,
built by the one memoized parabolic.word_orbit, which also builds the
involution rows, one ModuleElement.letters call per step, so words that
share a prefix share its element.  The result is a ModuleElement with a
symmetry index m and one coefficient p_tau per representative tau of the
orbit basis M^{tau|m}, the basis the pairing reads.  A letter Phi_c maps an
m'-symmetric element to a max(m', c)-symmetric one and each orbit row it
reads is certified by msym_expand (proofs in parabolic.py).  M^0 is
0-symmetric, so E~_lambda ends up l(lambda)-symmetric, and a marked E~
m-symmetric for its largest column length, at most l(shape).  The final
element is its orbit form by construction, so the pairing reads
expansion(m) and never builds a full E~; the full element is expanded, and
not kept, each time it is asked for (e_tilde(...).element, marked_e).
"""

from __future__ import annotations

from collections import namedtuple

from .coeffs import CoeffPoly, ConsistencyError, ONE, VINV, V, ZERO
from .compositions import (
    all_markings,
    arm,
    box_enumeration,
    boxes,
    canonicalize,
    lambda_star,
    leg,
    marking_stats,
    pad,
    sorting_data,
    swap,
    weight,
)
from .parabolic import (
    ModuleElement,
    MSymmetryViolation,
    bar_d,
    msym_expand,
    word_orbit,
)
from .polyrep import from_module

# the letters (barred, k, a, b), each k v^a q^b times Phi_c or Phibar_c
_PHI = ((False, 1, 0, 0),)
_MINUS_PHIBAR = ((True, -1, 0, 0),)
# marked_sum_check refuses shapes past this weight: 2^weight markings
_MARKING_WEIGHT_BOUND = 8


class MacdonaldResult(namedtuple("MacdonaldResult", "lam rank orbit normalization")):
    __slots__ = ()

    @property
    def element(self):
        """E~ in the standard basis, expanded on each access."""
        return self.orbit.element


def _check_rank(lam, n):
    if n < 2 or n < len(lam):
        raise ValueError("rank %d too small for %r" % (n, lam))


def e_word(lam):
    """The star chain of E~_lambda as a word: one (m, letters) step per box."""
    if not lam:
        return ()
    star, m, a = lambda_star(lam)
    return e_word(star) + ((m, _PHI + ((True, -1, 2 * a, lam[m - 1]),)),)


def marked_word(d):
    """The word of a marked diagram, in box enumeration order (first box first).

    Each box is one step: Phi_c if it is unmarked, -Phibar_c if it is marked.
    """
    order, cols = box_enumeration(canonicalize(d.shape))
    return tuple((c, _MINUS_PHIBAR if s in d.marked else _PHI) for s, c in zip(order, cols))


def e_orbit(lam, n):
    """E~_lambda at rank n in orbit form, l(lambda)-symmetric."""
    lam = canonicalize(lam)
    _check_rank(lam, n)
    return word_orbit(e_word(lam), n)


def e_tilde(lam, n):
    """E~_lambda at rank n, with its leading coefficient."""
    lam = canonicalize(lam)
    el = e_orbit(lam, n)
    # lambda's tail past l(lambda) is zero, so lambda is its own representative
    return MacdonaldResult(lam, n, el, el.terms.get(lam, ZERO))


def e_box_product(lam):
    """prod over boxes of (1 - q^{a+1} t^{l+1}), the leading coefficient."""
    out = ONE
    for s in boxes(lam):
        out = out * (ONE - CoeffPoly.monomial(1, 2 * (leg(lam, s) + 1), arm(lam, s) + 1))
    return out


def e_monomial(lam, n):
    """E~_lambda in z-coordinates; the z^lambda coefficient is certified."""
    res = e_tilde(lam, n)
    f = from_module(res.element)
    want = e_box_product(res.lam).shift(v_exp=sorting_data(res.lam, n).inversions)
    if f.coefficient(res.lam) != want:
        raise ConsistencyError(
            "leading z-coefficient of E~_%r at rank %d is off" % (res.lam, n)
        )
    return f


def marked_orbit(d, n):
    """Partial Macdonald polynomial of a marked diagram, in orbit form."""
    _check_rank(canonicalize(d.shape), n)
    return word_orbit(marked_word(d), n)


def marked_e(d, n):
    """The partial Macdonald polynomial of marked_orbit in the standard basis."""
    return marked_orbit(d, n).element


def marked_sum_check(lam, n):
    """E~_lambda == sum over markings S of q^{A_S} t^{L_S} E~_{lambda,S}."""
    lam = canonicalize(lam)
    if weight(lam) > _MARKING_WEIGHT_BOUND:
        raise ValueError("marking sum over 2^%d subsets refused" % weight(lam))
    total = ModuleElement.zero(n)
    for d in all_markings(lam):
        a, l = marking_stats(d)
        total = total + marked_e(d, n).scale(CoeffPoly.monomial(1, 2 * l, a))
    return total == e_tilde(lam, n).element


def duality_check(lam, n):
    """bar-d fixes E~_lambda up to the sign and monomial the theory predicts.

    The factor is (-1)^{|lambda|} q^{-A} t^{-B-l(w^lambda)} with
    A = sum binom(lambda_i+1, 2) and B = sum i*(sorted lambda)_i.  E~ is
    read in its orbit form, where bar_d works.
    """
    lam = canonicalize(lam)
    el = e_orbit(lam, n)
    a_exp = sum(p * (p + 1) // 2 for p in lam)
    lam_plus = sorted((p for p in lam if p), reverse=True)
    b_exp = sum(i * p for i, p in enumerate(lam_plus, start=1))
    ell = sorting_data(lam, n).inversions
    sign = -1 if weight(lam) % 2 else 1
    factor = CoeffPoly.monomial(sign, -2 * (b_exp + ell), -a_exp)
    return bar_d(el).terms == {tau: p * factor for tau, p in el.terms.items()}


def intertwiner_check(mu, i, n):
    """Cross-multiplied Hecke intertwiner between E_mu and E_{s_i mu}:

        (1 - f) (H_i - v^{-1}) E_mu == (v - v^{-1} f) (E_{s_i mu} - E_mu)

    with f = q^{mu_i - mu_{i+1}} t^{w^mu(i+1) - w^mu(i)}.
    """
    mu = canonicalize(mu)
    p = pad(mu, max(len(mu), i + 1))
    if i < 1 or i >= n or len(p) > n:
        raise ValueError("index out of range")
    if p[i - 1] == p[i]:
        raise ValueError("s_i fixes mu; the intertwiner degenerates")
    smu = swap(mu, i)
    w = sorting_data(mu, n).images
    f = CoeffPoly.monomial(1, 2 * (w[i] - w[i - 1]), p[i - 1] - p[i])
    e_mu = e_tilde(mu, n).element.scale(CoeffPoly.v_power(-sorting_data(mu, n).inversions))
    e_smu = e_tilde(smu, n).element.scale(
        CoeffPoly.v_power(-sorting_data(smu, n).inversions)
    )
    lhs = (e_mu.hi(i) - e_mu.scale(VINV)).scale(ONE - f)
    rhs = (e_smu - e_mu).scale(V - VINV * f)
    return lhs == rhs


def symmetric_j(mu, n):
    """The symmetric Macdonald polynomial J_mu in z-coordinates.

    Symmetrizes E over the finite Weyl group (_weyl_sum), times (1-t)^n and
    c_mu = prod over boxes of (1 - q^a t^{l+1}), divided exactly by N
    prod_a prod_{i <= m_a} (1 - t^i): N leads E~_{mu-}, m_a are the part
    multiplicities of mu padded to rank n.  Certifies symmetry and the z^mu
    coefficient c_mu: (1-t)^n times the sum's z^mu coefficient is the divisor.
    """
    mu = canonicalize(mu)
    if any(mu[k] < mu[k + 1] for k in range(len(mu) - 1)):
        raise ValueError("%r is not a partition" % (mu,))
    if n < 2 or n < len(mu):
        raise ValueError("rank too small")
    want = ONE
    for s in boxes(mu):
        want = want * (ONE - CoeffPoly.monomial(1, 2 * (leg(mu, s) + 1), arm(mu, s)))
    padded = pad(mu, n)
    mu_minus = canonicalize(sorted(padded))
    res = e_tilde(mu_minus, n)
    e_base = res.element.scale(CoeffPoly.v_power(-sorting_data(mu_minus, n).inversions))
    numer = _weyl_sum(e_base).scale((ONE - CoeffPoly.t_power(1)) ** n * want)
    denom = res.normalization
    for part in set(padded):
        for i in range(1, padded.count(part) + 1):
            denom = denom * (ONE - CoeffPoly.t_power(i))
    j_mod = ModuleElement(n, {k: c.exact_div(denom) for k, c in numer.terms.items()})
    try:
        msym_expand(j_mod, 0)
    except MSymmetryViolation as exc:
        raise MSymmetryViolation("J_%r is not symmetric at rank %d: %s" % (mu, n, exc)) from None
    jz = from_module(j_mod)
    if jz.coefficient(mu) != want:
        raise ConsistencyError("J_%r has the wrong z^mu coefficient" % (mu,))
    return jz


def _weyl_sum(x):
    """sum over w in S_n of v^{l(w)} F(w), where F(1) = x and F(w s_i) = H_i^{-1} F(w).

    S_{k+1} is the disjoint union of the cosets s_j ... s_k S_k (j = 1, ...,
    k + 1, the empty product at j = k + 1), lengths adding, so the sum is
    A_{n-1} ... A_1 x with A_k = sum_j v^{k-j+1} H_j^{-1} ... H_k^{-1}: one
    pass per k, applying H_k^{-1} first.
    """
    for k in range(1, x.rank):
        total = y = x
        for j in range(k, 0, -1):
            y = y.hi_inv(j).scale(V)
            total = total + y
        x = total
    return x
