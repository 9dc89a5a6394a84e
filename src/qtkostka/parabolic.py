"""The polynomial part of the parabolic Hecke module at explicit rank n.

Elements are finite sums sum_lambda c_lambda M^lambda with composition keys
(trimmed tuples, l(key) <= n) and CoeffPoly coefficients.  The generator
action in lambda coordinates is

    lambda_i < lambda_{i+1}:  H_i M^lambda = M^{s_i lambda}
    lambda_i = lambda_{i+1}:  H_i M^lambda = v^{-1} M^lambda
    lambda_i > lambda_{i+1}:  H_i M^lambda = M^{s_i lambda} + (v^{-1}-v) M^lambda

together with omega(M^lambda) = M^{(lambda_2,...,lambda_n,lambda_1+1)}.  The
inverse generator is H_i + (v - v^{-1}) by the quadratic relation.

The operator words Phi_m = H_m...H_{n-1} omega, Phibar_m with inverse factors,
and Z_i = H_i^{-1}...H_{n-1}^{-1} omega H_1...H_{i-1} are always applied
right to left (rightmost factor first).

Orbit form.  An m-symmetric element (H_i x = v^-1 x for every i > m) is
carried by one coefficient p_tau per representative tau of the orbit basis
M^{tau|m} (OrbitElement).  At m = n there is no i > m, every key is its own
representative and M^{tau|n} = M^tau: the full basis is the orbit basis at
m = n, and any element is the OrbitElement at n over its own terms.

Letters keep symmetry.  For c < i <= n-1, s_i s_c ... s_{n-1} = s_c ...
s_{n-1} s_{i-1}, both sides reduced, so H_i H_c ... H_{n-1} = H_c ...
H_{n-1} H_{i-1}; with omega H_i = H_{i-1} omega this gives H_i Phi_c =
Phi_c H_i.  Inverting the reversed identity gives the same with inverse
generators, and H_i^{-1} differs from H_i by a scalar, so H_i Phibar_c =
Phibar_c H_i too.  Hence if H_i x = v^-1 x for every i > m', then H_i
Phi_c(x) = v^-1 Phi_c(x) for every i > max(m', c): a letter maps an
m'-symmetric element to a max(m', c)-symmetric one.

One letter.  Phi_c and Phibar_c are applied only by OrbitElement.letters.
The image of the orbit sum M^{tau|m'} under Phi_c (or Phibar_c) is built
once per (tau, m', c, n, barred) from the memoized q-free word rows of
_letter_row, over every key of tau's orbit (_orbit_image); the word rows
are built by the one generator loop.  A letter on an orbit form is then
sum_tau p_tau image_tau, one coeffs.add_product per entry (tau, sigma) of
the rows.

Certificate.  Each orbit row is certified in full before its representative
entries are kept: msym_read(max(m', c)) must find H_i = v^-1 on every
two-term block for i > max(m', c), else ConsistencyError.  That is the
block check msym_expand runs on a full element, and it implies (proof at
kostka.msym_expand) that the image equals sum_sigma image_tau[sigma]
M^{sigma|m}, m = max(m', c), read at its representatives.  By induction
along a word of letters, an orbit form with index m' and coefficients p_tau
is exactly the element sum_tau p_tau M^{tau|m'}: true for M^0, and the
letters are linear over Z[v^±1, q^±1], so

    L(sum_tau p_tau M^{tau|m'}) = sum_sigma (sum_tau p_tau image_tau[sigma])
                                  M^{sigma|m},

which is the orbit form letters returns.  Each M^{sigma|m} passes the block
check (a test pins this for msym_basis), and the check is linear, so the
result passes the check msym_expand runs on it, and its representatives
for any m'' >= m are OrbitElement.expansion(m'').  At m' = n the check has
no index to test and each image row is the letter on one basis element.

The bar involution d is semilinear over the bar of coefficients and acts on
basis elements through the word d(M^lambda) = Phibar_{c_k}...Phibar_{c_1}(M^0)
over the column word of lambda.  Its rows are built once per (rank, lambda)
as ModuleElements by d_basis: one Phibar letter at m = n for a weakly
increasing key, one inverse generator for every other.
Every memo here comes from memo.py, which also clears them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .coeffs import CoeffPoly, ConsistencyError, ONE, add_product, finish
from .compositions import (
    canonicalize,
    format_composition,
    lambda_star,
    omega_star,
    orbit,
    pad,
    swap,
)
from .memo import memoized, table
from .sparse import SparseVector

# (lambda, i) -> (case, s_i lambda) with case = sign(lambda_{i+1} - lambda_i);
# (lambda, n) -> omega*(lambda).  Pure key surgery, memoized for the hot loops.
_SWAP_MEMO = table()
_OMEGA_MEMO = table()
# the one letter Phibar of the involution rows, as OrbitElement.letters takes it
_PHIBAR = ((True, 1, 0, 0),)


def _swap_entry(lam, i):
    a = lam[i - 1] if i - 1 < len(lam) else 0
    b = lam[i] if i < len(lam) else 0
    if a == b:
        return (0, lam)
    return ((1 if a < b else -1), swap(lam, i))


def _add_term(acc, key, c):
    s = acc.get(key)
    s = c if s is None else s + c
    if s:
        acc[key] = s
    elif key in acc:
        del acc[key]


class ModuleElement(SparseVector):
    """A finite CoeffPoly-combination of standard basis elements at rank n."""

    __slots__ = ()

    JSON_KEY = "lambda"

    @staticmethod
    def basis(lam, rank):
        return ModuleElement(rank, {lam: ONE})

    def basis_name(self, lam):
        return "M^{(%s)}" % format_composition(lam)

    # -- generator action -------------------------------------------------------

    def hi(self, i):
        """Apply the Hecke generator H_i, 1 <= i <= rank-1."""
        return self._hecke(i, -1)

    def hi_inv(self, i):
        """Apply H_i^{-1} = H_i + (v - v^{-1}).

        Folded per case: an equal pair picks up v, an ascent keeps the
        (v - v^{-1}) echo, and a descent is a plain swap.
        """
        return self._hecke(i, 1)

    def _hecke(self, i, sign):
        """Shared loop of hi (sign -1) and hi_inv (sign 1).

        An equal pair is scaled by v^sign; otherwise the key is swapped, and
        the case sign(lambda_{i+1} - lambda_i) == sign also keeps the echo
        sign (v - v^{-1}) times the old key, as two shifted copies.
        """
        n = self.rank
        if not 1 <= i <= n - 1:
            raise ValueError("index %d out of range for rank %d" % (i, n))
        acc = {}
        memo = _SWAP_MEMO
        for lam, c in self.terms.items():
            key = (lam, i)
            hit = memo.get(key)
            if hit is None:
                hit = memo[key] = _swap_entry(lam, i)
            case, swapped = hit
            if case == 0:
                _add_term(acc, lam, c.shift(v_exp=sign))
            else:
                _add_term(acc, swapped, c)
                if case == sign:
                    _add_term(acc, lam, c.echo(sign))
        return self._raw(acc)

    def msym_read(self, m):
        """One pass over the terms: (i, reps) for the m-symmetric read-off.

        i is the least index in (m, n) at which H_i does not act by v^-1, or
        None.  H_i keeps each block span{M^kappa, M^{s_i kappa}} and scales
        an equal pair by v^-1; on a block with an ascent kappa (kappa_i <
        kappa_{i+1}), both coordinates of H_i y = v^-1 y state the same
        equation c_{s_i kappa} = v^-1 c_kappa.  So the coefficients are
        compared at the ascent key only, and a descent key needs only its
        ascent partner to be present: if the partner is there, the ascent's
        comparison covers the block, and if not, no ascent sees the block.

        reps holds the terms at the representatives, the keys whose padded
        tail p[m:] is weakly decreasing: those with no ascent at any i > m.
        """
        terms = self.terms
        memo = _SWAP_MEMO
        idx = range(m + 1, self.rank)
        first = None
        reps = {}
        for lam, c in terms.items():
            rep = True
            for i in idx:
                key = (lam, i)
                hit = memo.get(key)
                if hit is None:
                    hit = memo[key] = _swap_entry(lam, i)
                case, swapped = hit
                if case == 1:
                    rep = False
                    # c_{s_i kappa} == v^-1 c_kappa, compared without a new CoeffPoly
                    other = terms.get(swapped)
                    broken = other is None or other.terms != {
                        (a - 1, b): x for (a, b), x in c.terms.items()
                    }
                else:
                    broken = case and swapped not in terms
                if broken and (first is None or i < first):
                    first = i
            if rep:
                reps[lam] = c
        return first, reps

    def omega(self):
        """The degree-raising rotation M^lambda -> M^{omega*(lambda)}."""
        n = self.rank
        memo = _OMEGA_MEMO
        acc = {}
        for lam, c in self.terms.items():
            key = (lam, n)
            img = memo.get(key)
            if img is None:
                img = memo[key] = omega_star(lam, n)
            acc[img] = c
        return self._raw(acc)

    def z_op(self, i):
        """Z_i = H_i^{-1} ... H_{n-1}^{-1} omega H_1 ... H_{i-1}, rightmost first."""
        n = self.rank
        if not 1 <= i <= n:
            raise ValueError("index out of range")
        x = self
        for j in range(i - 1, 0, -1):
            x = x.hi(j)
        x = x.omega()
        for j in range(n - 1, i - 1, -1):
            x = x.hi_inv(j)
        return x


@dataclass(frozen=True)
class OrbitElement:
    """An m-symmetric element at rank n in the orbit basis M^{tau|m}.

    terms maps each representative tau (padded tail p[m:] weakly
    decreasing) with p_tau != 0 to p_tau; the element is sum_tau p_tau
    M^{tau|m}.  The KL element, every E~ and marked E~, and every
    m-symmetric expansion the pairing reads are carried this way.  The
    coefficient at a key kappa of tau's orbit is v^{inv(kappa) - inv(tau)}
    p_tau (compositions.orbit).  At m = n every key is its own
    representative, and the orbit form is the element itself.
    """

    rank: int
    m: int
    terms: dict

    def expansion(self, m):
        """The same element at the symmetry index m >= self.m; self at m = self.m."""
        if not self.m <= m <= self.rank:
            raise ValueError("element is %d-symmetric, not read at m=%d" % (self.m, m))
        if m == self.m:
            return self  # instances are immutable
        out = {}
        for tau, p in self.terms.items():
            # keys with one offset share one coefficient object
            shifted = {}
            for key, e in orbit(tau, self.m, self.rank, m - self.m):
                c = shifted.get(e)
                if c is None:
                    c = shifted[e] = p.shift(v_exp=e)
                out[key] = c
        return OrbitElement(self.rank, m, out)

    @functools.cached_property
    def element(self):
        """The element in the standard basis, every key its own representative."""
        return ModuleElement.zero(self.rank)._raw(self.expansion(self.rank).terms)

    def letters(self, c, letters):
        """sum over letters (barred, k, a, b) of k v^a q^b Phi_c (Phibar_c if barred).

        The image is max(m, c)-symmetric; it is sum_tau p_tau times the
        image of M^{tau|m}, one coeffs.add_product per entry (tau, sigma) of
        the certified orbit rows (_orbit_image).
        """
        n = self.rank
        if not 1 <= c <= n:
            raise ValueError("letter index %d out of range for rank %d" % (c, n))
        acc = {}
        for tau, p in self.terms.items():
            for barred, k, a, b in letters:
                for sigma, r in _orbit_image(tau, self.m, c, n, barred).items():
                    t = acc.get(sigma)
                    if t is None:
                        t = acc[sigma] = {}
                    add_product(t, p, r, k, a, b)
        return OrbitElement(n, max(self.m, c), _finish_all(acc))


def _finish_all(acc):
    """The nonzero finished coefficients of a dict of accumulated terms dicts."""
    out = {}
    for key, t in acc.items():
        c = finish(t)
        if c:
            out[key] = c
    return out


@memoized
def _orbit_image(tau, m, c, n, barred):
    """The image of M^{tau|m} under Phi_c (Phibar_c if barred), certified.

    Returns its coefficients at the representatives for max(m, c).  The
    image is sum_kappa v^e Phi_c(M^kappa) over the keys kappa of the orbit
    with offsets e; Phi_c(M^kappa) is the prefix p[:c-1] of p =
    omega*(kappa) followed by the row of the word p[c-1:] (_letter_row),
    since H_c ... H_{n-1} only touch positions c..n.  The rows are q-free,
    so the sum is kept as integers per (key, v exponent).
    """
    acc = {}
    for kappa, e in orbit(tau, m, n):
        p = omega_star(kappa, n)
        prefix = p[: c - 1]
        it = iter(_letter_row(p[c - 1 :], barred))
        for u, f, k in zip(it, it, it):
            t = acc.setdefault(prefix + u, {})
            t[e + f] = t.get(e + f, 0) + k
    terms = {}
    for nu, t in acc.items():
        c_nu = CoeffPoly.v_laurent(t)
        if c_nu:
            terms[nu] = c_nu
    top = max(m, c)
    i, reps = ModuleElement.zero(n)._raw(terms).msym_read(top)
    if i is not None:
        raise ConsistencyError(
            "%s_%d of M^{%r|%d} at rank %d fails the block check at H_%d; not %d-symmetric"
            % ("Phibar" if barred else "Phi", c, tau, m, n, i, top)
        )
    return reps


@memoized
def _letter_row(word, barred):
    """The row of one letter on a word, by Phi_m = H_m Phi_{m+1} read locally.

    The row is H_1 ... H_{L-1} M^word over a word of length L with a positive
    last entry (inverse generators if barred), as the flat tuple (u_1, e_1,
    c_1, u_2, ...) of its q-free terms c v^e M^u.  A one-entry word is its
    own row (Phi_n = omega, which _orbit_image has applied).  Otherwise H_2 ...
    H_{L-1} leave the first entry alone, so the row is H_1 (or H_1^{-1})
    applied to word[0] followed by the row of word[1:].
    """
    if len(word) == 1:
        return (word, 0, 1)
    head = word[:1]
    it = iter(_letter_row(word[1:], barred))
    terms = {}
    for u, e, k in zip(it, it, it):
        terms.setdefault(head + u, {})[(e, 0)] = k
    x = ModuleElement.zero(len(word))._raw({nu: CoeffPoly(t) for nu, t in terms.items()})
    x = x.hi_inv(1) if barred else x.hi(1)
    return tuple(
        z for nu, c in x.terms.items() for (e, _), k in c.terms.items() for z in (nu, e, k)
    )


# -- monomial images under the standard embedding --------------------------------


def psi_monomial(lam, n):
    """Image of the z-monomial z^lambda: Z_1^{lambda_1}...Z_n^{lambda_n}(M^0)."""
    lam = canonicalize(lam)
    if len(lam) > n:
        raise ValueError("rank %d too small for %r" % (n, lam))
    return _psi_monomial(lam, n)


@memoized
def _psi_monomial(lam, n):
    if not lam:
        return ModuleElement.basis((), n)
    k = next(i for i, x in enumerate(lam) if x > 0)
    smaller = canonicalize(lam[:k] + (lam[k] - 1,) + lam[k + 1 :])
    return _psi_monomial(smaller, n).z_op(k + 1)


# -- the bar involution -----------------------------------------------------------

def d_basis(lam, n):
    """d(M^lambda), built once per (rank, lambda).

    For an ascent kappa_i < kappa_{i+1} the standard basis transforms without
    echo, M^{s_i kappa} = H_i M^kappa, so by semilinearity the row of s_i kappa
    is H_i^{-1} applied to the row of kappa.  Rows therefore propagate by
    single inverse generators from the weakly increasing arrangement of the
    entries, which is the only key still built from its column word: its row
    is Phibar_m applied to the row of lambda*, m = l(lambda), the orbit
    letter at symmetry index n, where every key is its own representative.
    """
    lam = canonicalize(lam)
    if len(lam) > n:
        raise ValueError("rank %d too small for %r" % (n, lam))
    return _d_row(lam, n)


@memoized
def _d_row(lam, n):
    """The row of d_basis: hi_inv at the first descent, else Phibar_m on lambda*."""
    if not lam:
        return ModuleElement.basis((), n)
    p = pad(lam, n)
    i = next((k + 1 for k in range(n - 1) if p[k] > p[k + 1]), None)
    if i is None:
        star, m, _ = lambda_star(lam)
        image = OrbitElement(n, n, _d_row(star, n).terms).letters(m, _PHIBAR)
        return ModuleElement.zero(n)._raw(image.terms)
    return _d_row(swap(lam, i), n).hi_inv(i)


def bar_d(x):
    """The semilinear bar involution of the module."""
    acc = {}
    for lam, c in x.terms.items():
        cb = c.bar()
        for nu, r in d_basis(lam, x.rank).terms.items():
            add_product(acc.setdefault(nu, {}), r, cb)
    return ModuleElement.zero(x.rank)._raw(_finish_all(acc))
