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

Orbit rows.  The involution d in the orbit basis is

    d(M^{tau|m}) = sum_sigma R[tau][sigma] M^{sigma|m},

with the orbit row R[tau] built from the involution row of tau's bottom key
and certified by an exact division (parabolic._orbit_row, which derives
it).  parabolic.bar_d applies d through the same rows.

The solve.  p_lambda = 1; walking the representatives in decreasing
min_rep_length, p_sigma = skew_positive_part(sum_tau bar(p_tau) R[tau][sigma]).

Certificates, all in quotient form: a unit diagonal R[tau][tau] = 1; strict
triangularity of each orbit row in min_rep_length; bar-skewness at every node
(in skew_positive_part); p_tau in vZ[v] for tau != lambda; the exact division
by bar(s_tau) in each orbit row; and self-duality, recomputed from scratch as
bar_d(el) == el in the orbit basis, over the same orbit rows.  They imply the
certificates of the full-rank solve:

* Each M^{tau|m} is an H_i = v^-1 eigenvector for every i > m (proof at
  parabolic.msym_expand; a test checks it against the generator for
  msym_basis), so the element sum_tau p_tau M^{tau|m} is m-symmetric by
  construction.
* d(M^{tau|m}) = sum_sigma R[tau][sigma] M^{sigma|m} exactly, as derived
  at parabolic._orbit_row, so d(sum_tau p_tau M^{tau|m}) = sum_sigma
  (sum_tau bar(p_tau) R[tau][sigma]) M^{sigma|m}, which is bar_d's orbit
  form: bar-invariance in the quotient, which the recheck certifies, is
  bar-invariance of the full element.
* The coefficient at lambda is 1.  Every other key of lambda's orbit has a
  coefficient v^{l} with l >= 1, and every key of another orbit a multiple
  of its p_tau in vZ[v].  So the element is congruent to M^lambda modulo
  vZ[v], and by uniqueness of the KL element it is the one the full-rank
  solve returns.
"""

from __future__ import annotations

from operator import itemgetter

from .bruhat import min_rep_length
from .coeffs import CoeffPoly, ConsistencyError, ONE, add_product, finish, interned
from .compositions import canonicalize, partition_length
from .memo import memoized
from .parabolic import ModuleElement, _orbit_row, bar_d


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

    el = KLElement(n, coeffs, m, lam)
    if bar_d(el).terms != el.terms:
        raise ConsistencyError("M^_%r at rank %d is not self-dual" % (lam, n))
    return el
