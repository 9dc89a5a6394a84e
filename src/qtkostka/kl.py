"""Kazhdan-Lusztig basis of the polynomial parabolic module.

M^_lambda is the unique bar-invariant element congruent to M^lambda modulo
terms with coefficients in vZ[v].  It is m-symmetric for m =
partition_length(lambda), so it is fixed by one coefficient p_tau per orbit
of the tail permutations:

    M^_lambda = sum_tau p_tau M^{tau|m},

where tau runs over the representatives (padded tail p[m:] weakly
decreasing) and M^{tau|m} is the orbit sum of msym_basis.  The solve finds
the p_tau by one triangular solve over this orbit basis (Deodhar's parabolic
KL setting), at every rank n with one row per representative.  Every
coefficient is then read off: the coefficient at a key kappa is
v^{inv(kappa) - inv(tau)} p_tau, with tau the representative of kappa's orbit
and inv from sorting_data (ModuleElement.expansion).

Orbit rows.  Let N = n - m and J = {m+1, ..., n-1}.  The element
C_J = v^{N(N-1)/2} sum_{w in W_J} v^{-l(w)} H_w is bar-invariant, and
H_i C_J = C_J H_i = v^-1 C_J for i in J.  For a representative tau let
kappa0 be tau with its tail sorted increasingly, and let l(kappa) count the
strict inversions (i < j with kappa_i > kappa_j) of kappa's padded tail.
Then C_J M^{kappa0} = s_tau M^{tau|m}, where

    s_tau = v^{N(N-1)/2 - l(tau)} prod_a [mult_a]!_{v^-2},

the product running over the tail's part multiplicities, zeros included.
The involution d is semilinear, d(h x) = bar(h) d(x) with bar(H_i) =
H_i^-1, so with C_J bar-invariant, d(M^{tau|m}) = bar(s_tau)^-1 C_J
d(M^{kappa0}).  For kappa in the orbit of sigma, C_J M^kappa =
v^{-l(kappa)} s_sigma M^{sigma|m}.  Hence

    d(M^{tau|m}) = sum_sigma R[tau][sigma] M^{sigma|m},
    R[tau][sigma] = s_sigma A_sigma / bar(s_tau),
    A_sigma = sum_{kappa in orbit(sigma)} v^{-l(kappa)} r_{kappa0,kappa},

r being the involution row of kappa0 (d_basis).  A_sigma is accumulated in
place by coeffs.add_product, each entry shifted by v^{-l(kappa)}.
d(M^{tau|m}) is m-symmetric as M^{tau|m} is, so the division by bar(s_tau)
is exact on correct rows; a remainder raises ConsistencyError.

The solve.  p_lambda = 1; walking the representatives in decreasing
min_rep_length, p_sigma = skew_positive_part(sum_tau bar(p_tau) R[tau][sigma]).

Certificates, all in quotient form: a unit diagonal R[tau][tau] = 1; strict
triangularity of each orbit row in min_rep_length; bar-skewness at every node
(in skew_positive_part); p_tau in vZ[v] for tau != lambda; the exact division
by bar(s_tau); and self-duality, recomputed from scratch over the orbit rows
as sum_tau bar(p_tau) R[tau] == p.  They imply the certificates of the
full-rank solve:

* Each M^{tau|m} is an H_i = v^-1 eigenvector for every i > m (proof at
  parabolic.msym_expand; a test checks it against the generator for
  msym_basis), so the element sum_tau p_tau M^{tau|m} is m-symmetric by
  construction.
* d(M^{tau|m}) = sum_sigma R[tau][sigma] M^{sigma|m} exactly, as derived
  above, so d(sum_tau p_tau M^{tau|m}) = sum_sigma (sum_tau bar(p_tau)
  R[tau][sigma]) M^{sigma|m}: bar-invariance in the quotient, which the
  recheck certifies, is bar-invariance of the full element.
* The coefficient at lambda is 1.  Every other key of lambda's orbit has a
  coefficient v^{l} with l >= 1, and every key of another orbit a multiple
  of its p_tau in vZ[v].  So the element is congruent to M^lambda modulo
  vZ[v], and by uniqueness of the KL element it is the one the full-rank
  solve returns.
"""

from __future__ import annotations

from operator import itemgetter

from .bruhat import min_rep_length
from .coeffs import (
    CoeffPoly,
    ConsistencyError,
    NonExactDivision,
    ONE,
    add_product,
    finish,
    finish_all,
    interned,
)
from .compositions import canonicalize, pad, partition_length
from .memo import memoized
from .parabolic import ModuleElement, d_basis


class KLElement(ModuleElement):
    """M^_lambda at rank n as its coefficients over the orbit basis M^{tau|m}.

    m = partition_length(lambda); terms maps each representative tau with
    p_tau != 0 to p_tau; built as KLElement(rank, terms, m, lambda).  Its
    linear operations return plain ModuleElements.
    """

    __slots__ = ()
    lam = property(itemgetter(3))


def skew_positive_part(g):
    """The unique p in vZ[v] with p - bar(p) = g.

    g must be q-free and bar-skew (which forces a zero constant term);
    anything else means the involution rows upstream are broken.
    """
    if not g.is_q_free():
        raise ConsistencyError("skew part of a polynomial involving q: %r" % g)
    p = CoeffPoly({e: c for e, c in g.terms.items() if e[0] > 0})
    if p - p.bar() != g:
        raise ConsistencyError("not bar-skew: %r" % g)
    return p


def kl_element(lam, n):
    """The self-dual basis element on top of M^lambda at rank n."""
    lam = canonicalize(lam)
    if n < 2 or n < len(lam):
        raise ValueError("rank %d too small for %r" % (n, lam))
    return _quotient_solve(lam, n)


def _tail_inversions(tail):
    """l: the pairs i < j with tail[i] > tail[j]."""
    return sum(1 for i, a in enumerate(tail) for b in tail[i + 1 :] if a > b)


@memoized
def _s_factor(tau, m, n):
    """s_tau = v^{N(N-1)/2 - l(tau)} prod_a [mult_a]!_{v^-2}, N = n - m, interned."""
    tail = pad(tau, n)[m:]
    big = len(tail)
    out = CoeffPoly.v_power(big * (big - 1) // 2 - _tail_inversions(tail))
    for a in set(tail):
        for i in range(2, tail.count(a) + 1):
            out = out * CoeffPoly({(-2 * j, 0): 1 for j in range(i)})
    return interned(out)


@memoized
def _orbit_row(tau, m, n):
    """R[tau], the orbit row d(M^{tau|m}) = sum_sigma R[tau][sigma] M^{sigma|m}, interned."""
    p = pad(tau, n)
    row = d_basis(canonicalize(p[:m] + tuple(sorted(p[m:]))), n)
    sums = {}
    for kappa, r in row.terms.items():
        q = pad(kappa, n)
        sigma = canonicalize(q[:m] + tuple(sorted(q[m:], reverse=True)))
        add_product(sums.setdefault(sigma, {}), r, ONE, 1, -_tail_inversions(q[m:]))
    s_bar = _s_factor(tau, m, n).bar()
    out = {}
    for sigma, a in finish_all(sums).items():
        try:
            out[sigma] = interned((_s_factor(sigma, m, n) * a).exact_div(s_bar))
        except NonExactDivision:
            raise ConsistencyError(
                "bar(s_%r) does not divide the orbit row of %r at %r at rank %d"
                % (tau, tau, sigma, n)
            ) from None
    return out


@memoized
def _quotient_solve(lam, n):
    m = partition_length(lam)
    rows = {}
    frontier = [lam]
    while frontier:
        tau = frontier.pop()
        if tau in rows:
            continue
        row = _orbit_row(tau, m, n)
        if row.get(tau) != ONE:
            raise ConsistencyError("orbit row of %r has a bad diagonal" % (tau,))
        top = min_rep_length(tau, n)
        for sigma in row:
            if sigma != tau and min_rep_length(sigma, n) >= top:
                raise ConsistencyError(
                    "orbit row of %r is not strictly triangular at %r" % (tau, sigma)
                )
        rows[tau] = row
        frontier.extend(sigma for sigma in row if sigma not in rows)

    # solve top-down; acc[sigma] is sum_tau bar(p_tau) R[tau][sigma] over the
    # representatives tau above sigma
    order = sorted(rows, key=lambda tau: min_rep_length(tau, n), reverse=True)
    if order[0] != lam:
        raise ConsistencyError("support closure of %r is not topped by it" % (lam,))
    coeffs = {}
    acc = {sigma: {} for sigma in order}
    for sigma in order:
        if sigma == lam:
            p = ONE
        else:
            g = finish(acc[sigma])
            if not g:
                continue
            p = skew_positive_part(g)
            if not p:
                continue
            if not p.is_q_free() or p.min_v_exp() < 1:
                raise ConsistencyError(
                    "KL coefficient of %r in M^_%r leaves vZ[v]: %r" % (sigma, lam, p)
                )
        coeffs[sigma] = p = interned(p)
        pb = p.bar()
        for nu, r in rows[sigma].items():
            if nu != sigma:
                add_product(acc[nu], pb, r)

    _selfdual_check(lam, n, rows, coeffs)
    return KLElement(n, coeffs, m, lam)


def _selfdual_check(lam, n, rows, coeffs):
    """Self-duality from scratch: d(el) = sum_tau bar(p_tau) R[tau] must be el.

    rows maps every representative of the solve to its orbit row R[tau] and
    coeffs maps the representatives to the solved p_tau; a mismatch raises
    ConsistencyError.
    """
    image = {sigma: {} for sigma in rows}
    for tau, p in coeffs.items():
        pb = p.bar()
        for sigma, r in rows[tau].items():
            add_product(image[sigma], pb, r)
    if finish_all(image) != coeffs:
        raise ConsistencyError("M^_%r at rank %d is not self-dual" % (lam, n))
