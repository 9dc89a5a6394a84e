"""Kazhdan-Lusztig basis of the polynomial parabolic module.

M^_lambda is the unique bar-invariant element congruent to M^lambda modulo
terms with coefficients in vZ[v].  It is found by the standard triangular
solve: close the support under the involution's rows, walk it from the top
of the Bruhat order down, and at each node split the accumulated bar-skew
right-hand side into its positive part.

Every quantity of the solve is q-free, so it runs on Kronecker-packed ints
(packed.py) against the barred rows of packed_row, all at the window offset
|lambda|(n-1).  Exactness, step by step:

* Window.  A row entry bar(r) has exponents >= -|lambda|(n-1), and a KL
  coefficient p lies in Z[v], so p * bar(r) and any sum of such products stay
  in the window; the one v^-1 shift, in the row builder, checks the digit it
  drops.
* Bound.  Each row carries a proven bound on its coefficients.  The
  right-hand side at every node is a sum of p_mu * bar(r_{mu,nu}), so its
  coefficients are at most sum_mu ||p_mu||_1 * bound(row_mu), the running
  bound kept by the solve.  A node is decoded only while that bound is below
  2^(WIDTH-1), where balanced digits are the coefficients; otherwise the
  solve raises ConsistencyError naming the width.
* Comparisons.  The diagonal check and the self-duality recheck compare
  packed ints under fitting bounds, where int equality is polynomial
  equality.

The certificates are those of the CoeffPoly solve: a unit diagonal, strict
triangularity in min_rep_length, bar-skewness at every node (in
skew_positive_part), coefficients in vZ[v], and self-duality, recomputed
from scratch as sum_mu p_mu * bar(row_mu) == bar(el), which is
bar_d(el) == el with both sides barred.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import packed
from .bruhat import min_rep_length
from .coeffs import CoeffPoly, ConsistencyError, ONE
from .compositions import canonicalize, weight
from .memo import memoized
from .parabolic import ModuleElement, packed_row


@dataclass(frozen=True)
class KLElement:
    lam: tuple
    rank: int
    element: ModuleElement


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
    return _kl_solve(lam, n)


@memoized
def _kl_solve(lam, n):
    # support closure under the involution rows
    off = packed.offset(weight(lam), n)
    one = packed.encode(ONE, off)
    rows = {}
    frontier = [lam]
    while frontier:
        mu = frontier.pop()
        if mu in rows:
            continue
        row = packed_row(mu, n)
        if row.terms.get(mu) != one:
            raise ConsistencyError("involution row of %r has a bad diagonal" % (mu,))
        rows[mu] = row
        frontier.extend(nu for nu in row.terms if nu not in rows)

    # solve top-down; triangularity of the rows is verified on the way.
    # acc[nu] holds bar of the right-hand side, sum p_mu * bar(r_{mu,nu}),
    # and bound is the running bound on its coefficients.
    ml = {mu: min_rep_length(mu, n) for mu in rows}
    order = sorted(rows, key=ml.__getitem__, reverse=True)
    if order[0] != lam:
        raise ConsistencyError("support closure of %r is not topped by it" % (lam,))
    coeffs = {lam: ONE}
    acc = {}
    bound = 0
    for mu in order:
        if mu == lam:
            p = ONE
        else:
            x = acc.get(mu)
            if x is None:
                continue
            packed.check_bound(bound, "KL solve of %r at rank %d" % (lam, n))
            p = skew_positive_part(packed.decode(x, off).bar())
            if not p:
                continue
            coeffs[mu] = p
        row = rows[mu]
        bound += packed.l1(p) * row.bound
        pv = packed.encode(p, 0)
        for nu, r in row.terms.items():
            if nu == mu:
                continue
            if ml[nu] >= ml[mu]:
                raise ConsistencyError(
                    "involution row of %r is not strictly triangular at %r" % (mu, nu)
                )
            acc[nu] = acc.get(nu, 0) + pv * r

    el = ModuleElement(n, coeffs)
    for mu, c in el.terms.items():
        if mu == lam:
            continue
        if not c.is_q_free() or c.min_v_exp() < 1:
            raise ConsistencyError(
                "KL coefficient of %r in M^_%r leaves vZ[v]: %r" % (mu, lam, c)
            )

    # self-duality from scratch: bar(d(el)) = sum_mu p_mu * bar(row_mu) must
    # be bar(el), compared packed under a bound that makes it exact
    image = {}
    bound = 0
    for mu, p in el.terms.items():
        row = rows[mu]
        bound += packed.l1(p) * row.bound
        pv = packed.encode(p, 0)
        for nu, r in row.terms.items():
            image[nu] = image.get(nu, 0) + pv * r
    packed.check_bound(bound, "self-duality recheck of M^_%r at rank %d" % (lam, n))
    want = {mu: packed.encode(c.bar(), off) for mu, c in el.terms.items()}
    if {nu: x for nu, x in image.items() if x} != want:
        raise ConsistencyError("M^_%r at rank %d is not self-dual" % (lam, n))
    return KLElement(lam, n, el)
