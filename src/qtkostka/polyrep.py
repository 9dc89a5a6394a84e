"""The rank-n polynomial representation in z-coordinates.

Monomials z^tau are keyed by trimmed exponent tuples.  The generator acts by
the Demazure-Lusztig formula

    H_i(f) = v^{-1} s_i(f) + (v - v^{-1}) z_{i+1} (f - s_i f) / (z_i - z_{i+1}),

the divided difference being an exact polynomial division.  The rotation
omega~ substitutes (q^{-1} z_n, z_1, ..., z_{n-1}) and the Cherednik operator
xi_i is the word v^{1-n} H_{i-1}...H_1 omega~^{-1} H_{n-1}^{-1}...H_i^{-1},
applied rightmost first.  Conversion to and from the parabolic module goes
through the monomial images psi(z^tau), which are unitriangular against the
standard basis along the Bruhat order.
"""

from __future__ import annotations

from .coeffs import (
    CoeffPoly,
    ConsistencyError,
    ONE,
    VINV,
    V_MINUS_VINV,
    add_product,
    finish,
    finish_all,
)
from .bruhat import min_rep_length
from .compositions import canonicalize, pad, sorting_data, swap
from .parabolic import ModuleElement, psi_monomial
from .sparse import SparseVector, add_term


class ZPoly(SparseVector):
    """Polynomial in z_1..z_n with CoeffPoly coefficients."""

    __slots__ = ()

    JSON_KEY = "z"

    @staticmethod
    def one(rank):
        return ZPoly(rank, {(): ONE})

    @staticmethod
    def monomial(tau, rank, coeff=ONE):
        return ZPoly(rank, {tuple(tau): coeff})

    def basis_name(self, tau):
        return "*".join(
            "z_%d" % (k + 1) if e == 1 else "z_%d^%d" % (k + 1, e)
            for k, e in enumerate(tau)
            if e
        )

    def swap_vars(self, i):
        """Exchange z_i and z_{i+1}, 1 <= i <= rank-1."""
        n = self.rank
        if not 1 <= i <= n - 1:
            raise ValueError("index %d out of range for rank %d" % (i, n))
        return self._raw(n, {swap(tau, i): c for tau, c in self.terms.items()})

    def hi(self, i):
        """Demazure-Lusztig action of H_i."""
        n = self.rank
        swapped = self.swap_vars(i)
        diff = self - swapped
        # z_{i+1} * diff, then exact division by z_i - z_{i+1}
        shifted = {}
        for tau, c in diff.terms.items():
            p = pad(tau, max(len(tau), i + 1))
            shifted[p[:i] + (p[i] + 1,) + p[i + 1 :]] = c
        dd = self._raw(n, _div_by_zi_minus_zj(shifted, i, n))
        return swapped.scale(VINV) + dd.scale(V_MINUS_VINV)

    def hi_inv(self, i):
        return self.hi(i) + self.scale(V_MINUS_VINV)

    def omega_tilde(self):
        """Substitute (q^{-1} z_n, z_1, ..., z_{n-1})."""
        n = self.rank
        acc = {}
        for tau, c in self.terms.items():
            p = pad(tau, n)
            acc[canonicalize(p[1:] + (p[0],))] = c.shift(q_exp=-p[0])
        return self._raw(n, acc)

    def omega_tilde_inv(self):
        """Substitute (z_2, ..., z_n, q z_1)."""
        n = self.rank
        acc = {}
        for tau, c in self.terms.items():
            p = pad(tau, n)
            acc[canonicalize((p[n - 1],) + p[: n - 1])] = c.shift(q_exp=p[n - 1])
        return self._raw(n, acc)


def _div_by_zi_minus_zj(terms, i, n):
    """Exact division of a z-polynomial (padded dict) by z_i - z_{i+1}.

    Long division along the lex order; for inputs antisymmetric in (i, i+1)
    the remainder always vanishes.
    """
    rem = {pad(tau, n): c for tau, c in terms.items() if c}
    quot = {}
    while rem:
        e = max(rem)
        c = rem.pop(e)
        if e[i - 1] == 0:
            raise ArithmeticError("division by z_%d - z_%d is not exact" % (i, i + 1))
        qe = e[: i - 1] + (e[i - 1] - 1,) + e[i:]
        add_term(quot, qe, c)
        # subtract c * z^qe * (z_i - z_{i+1}); the z_i part cancels e
        add_term(rem, qe[:i] + (qe[i] + 1,) + qe[i + 1 :], c)
    return {canonicalize(e): c for e, c in quot.items()}


def cherednik_xi(f, i):
    """The commuting Cherednik operator xi_i on a rank-n polynomial."""
    n = f.rank
    if not 1 <= i <= n:
        raise ValueError("index out of range")
    x = f
    for j in range(i, n):
        x = x.hi_inv(j)
    x = x.omega_tilde_inv()
    for j in range(1, i):
        x = x.hi(j)
    return x.scale(CoeffPoly.v_power(1 - n))


def xi_eigenvalue(lam, n, i):
    """q^{lambda_i} t^{1 - w^lambda(i)}, the xi_i eigenvalue on E_lambda, 1 <= i <= n."""
    if not 1 <= i <= n:
        raise ValueError("index out of range")
    lam_p = pad(canonicalize(lam), n)
    w = sorting_data(canonicalize(lam), n).images
    return CoeffPoly.monomial(1, 2 * (1 - w[i - 1]), lam_p[i - 1])


def to_module(f):
    """Push a polynomial into the parabolic module along the monomial images.

    sum_tau f_tau psi(z^tau), accumulated in place: one add_product per
    entry of each image.
    """
    n = f.rank
    acc = {}
    for tau, c in f.terms.items():
        for lam, r in psi_monomial(tau, n).element.terms.items():
            add_product(acc.setdefault(lam, {}), r, c)
    return ModuleElement._raw(n, finish_all(acc))


def from_module(x):
    """Invert to_module by peeling along a linear extension of the Bruhat order.

    psi(z^mu) is v^{-inv(mu)} M^mu plus keys strictly below mu in the
    Bruhat order, so strictly shorter in min_rep_length.  The remainder,
    one terms dict per key, is peeled in place one level of min_rep_length
    at a time, from the top: at a key mu with remainder c != 0 the
    coefficient of z^mu is a = v^{inv(mu)} c, and psi(z^mu) a is subtracted
    with add_product.  Every peel is certified, else ConsistencyError: the
    remainder at mu must cancel exactly, and every other key of psi(z^mu)
    that is not pending must lie below mu's level.  A peeled key therefore
    never comes back, each key is peeled at most once, and the loop ends
    with x = sum_mu a_mu psi(z^mu) exactly.
    """
    n = x.rank
    rem = {}
    levels = {}
    for lam, c in x.element.terms.items():
        rem[lam] = dict(c.terms)
        levels.setdefault(min_rep_length(lam, n), []).append(lam)
    acc = {}
    for level in range(max(levels, default=-1), -1, -1):
        for mu in levels.pop(level, ()):
            c = finish(rem.pop(mu))
            if not c:
                continue
            a = acc[mu] = c.shift(v_exp=sorting_data(mu, n).inversions)
            image = psi_monomial(mu, n).element.terms
            lead = image.get(mu)
            if lead is None or lead * a != c:
                raise ConsistencyError("peeling z^%r leaves a remainder at M^%r" % (mu, mu))
            for lam, r in image.items():
                t = rem.get(lam)
                if t is None:
                    if lam == mu:
                        continue
                    below = min_rep_length(lam, n)
                    if below >= level:
                        raise ConsistencyError(
                            "psi(z^%r) reaches M^%r, not below it" % (mu, lam))
                    t = rem[lam] = {}
                    levels.setdefault(below, []).append(lam)
                add_product(t, r, a, -1)
    return ZPoly(n, acc)


def _w0_word(n):
    """A reduced word for the longest permutation: (1)(2 1)(3 2 1)..."""
    word = []
    for k in range(1, n):
        word.extend(range(k, 0, -1))
    return word


def bar_polynomial(f):
    """The bar involution computed on the polynomial side.

    d(p) = v^{l(w_0)} H_{w_0}(w_0 pbar): bar the coefficients, reverse the
    variables, then apply the H-word of the longest permutation (rightmost
    letter first).  Must agree with the module-side involution through psi.
    """
    n = f.rank
    acc = {}
    for tau, c in f.terms.items():
        p = pad(tau, n)
        acc[canonicalize(p[::-1])] = c.bar()
    x = ZPoly(n, acc)
    for i in reversed(_w0_word(n)):
        x = x.hi(i)
    return x.scale(CoeffPoly.v_power(n * (n - 1) // 2))
