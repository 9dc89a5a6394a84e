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

One element type.  An m-symmetric element (H_i x = v^-1 x for every i > m)
is carried by one coefficient p_tau per representative tau of the orbit
basis M^{tau|m}: a ModuleElement with index m.  At m = n there is no i > m,
every key is its own representative and M^{tau|n} = M^tau, so the
ModuleElement at m = n, the default, is the element in the standard basis.

Letters keep symmetry.  For c < i <= n-1, s_i s_c ... s_{n-1} = s_c ...
s_{n-1} s_{i-1}, both sides reduced, so H_i H_c ... H_{n-1} = H_c ...
H_{n-1} H_{i-1}; with omega H_i = H_{i-1} omega this gives H_i Phi_c =
Phi_c H_i.  Inverting the reversed identity gives the same with inverse
generators, and H_i^{-1} differs from H_i by a scalar, so H_i Phibar_c =
Phibar_c H_i too.  Hence if H_i x = v^-1 x for every i > m', then H_i
Phi_c(x) = v^-1 Phi_c(x) for every i > max(m', c): a letter maps an
m'-symmetric element to a max(m', c)-symmetric one.

One letter.  Phi_c and Phibar_c are applied only by ModuleElement.letters.
The image of the orbit sum M^{tau|m'} under Phi_c (or Phibar_c) is built
once per (tau, m', c, n, barred) over every key of tau's orbit
(_orbit_image), from the memoized word rows of _letter_row.  A word row is
a dict {u: c} of q-free coefficients, built by the one generator loop and
interned like every other row a memo keeps; _orbit_image adds each entry
in at its orbit offset with coeffs.add_product.  A letter on an orbit form
is then sum_tau p_tau image_tau, one coeffs.add_product per entry (tau,
sigma) of the image rows.

Certificate.  Each orbit row is certified in full before its representative
entries are kept: msym_expand(image, max(m', c)), the one conversion from a
full element to its orbit form, must find every key of the image on the
orbit of a representative term, with the coefficient compositions.orbit
gives it there, else MSymmetryViolation.  So the image equals sum_sigma
image_tau[sigma] M^{sigma|m}, m = max(m', c), which is m-symmetric (proof at
msym_expand).  By induction along a word of letters, an orbit form with
index m' and coefficients p_tau is exactly the element sum_tau p_tau
M^{tau|m'}: true for M^0, and the letters are linear over Z[v^±1, q^±1], so

    L(sum_tau p_tau M^{tau|m'}) = sum_sigma (sum_tau p_tau image_tau[sigma])
                                  M^{sigma|m},

which is the orbit form letters returns.  Orbits are disjoint, so that sum
passes msym_expand at m by definition, and it is m''-symmetric for any m''
>= m, read at its representatives by ModuleElement.expansion(m'').  At m' = n
every key is its own orbit and each image row is the letter on one basis
element.

One word recursion.  A word is a tuple of steps (c, letters) applied to M^0
first step first; word_orbit builds it once per (word, n) on the memoized
orbit form of its prefix, one letters call per step, so words that share a
prefix share its element.  E~ and every marked E~ (macdonald.py) and the
involution rows are such words.

The bar involution d is semilinear over the bar of coefficients and acts on
basis elements through the word d(M^lambda) = Phibar_{c_k}...Phibar_{c_1}(M^0)
over the star chain of lambda (d_word; proof at d_basis).  Its rows are the
expansions at m = n of those words, kept once per (rank, lambda) as
ModuleElements by d_basis, their coefficients interned by the letters.
Every memo here comes from memo.py, which also clears them.
"""

from __future__ import annotations

from operator import itemgetter

from .coeffs import ConsistencyError, ONE, add_product, finish_all, interned, memo_shift, shifted
from .compositions import (
    canonicalize,
    format_composition,
    lambda_star,
    omega_star,
    orbit,
    partition_length,
    swap,
)
from .memo import memoized
from .sparse import SparseVector, add_term

# the one letter Phibar of the involution rows, as ModuleElement.letters takes it
_PHIBAR = ((True, 1, 0, 0),)


class ModuleElement(SparseVector):
    """An m-symmetric element at rank n in the orbit basis M^{tau|m}.

    terms maps each representative tau (padded tail p[m:] weakly
    decreasing) with p_tau != 0 to p_tau; the element is sum_tau p_tau
    M^{tau|m}, with coefficient v^{inv(kappa) - inv(tau)} p_tau at a key
    kappa of tau's orbit (compositions.orbit).  m defaults to n, where every
    key is its own representative.  Every standard-basis operation reads
    element, the expansion at m = n.
    """

    __slots__ = ()
    m = property(itemgetter(2))

    JSON_KEY = "lambda"

    def __new__(cls, rank, terms=None, m=None, *more):
        m = rank if m is None else m
        out = super().__new__(cls, rank, terms, m, *more)
        if not 0 <= m <= rank or any(partition_length(tau) > m for tau in out.terms):
            raise ValueError("m=%d is out of range or has a non-representative key" % m)
        return out

    @staticmethod
    def _raw(rank, terms, m=None):
        """A plain ModuleElement at rank and m (default rank) over terms, taken without checks."""
        return tuple.__new__(ModuleElement, (rank, terms, rank if m is None else m))

    @staticmethod
    def basis(lam, rank):
        return ModuleElement(rank, {lam: ONE})

    def basis_name(self, lam):
        return "M^{(%s)}" % format_composition(lam)

    def __repr__(self):
        # pretty prints the element, so an index m < rank must show to tell elements apart
        m = "" if self.m == self.rank else ", m=%d" % self.m
        return "%s(rank=%d%s, %s)" % (type(self).__name__, self.rank, m, self.pretty())

    def expansion(self, m):
        """The same element at the symmetry index m >= self.m; self at m = self.m.

        The shifted copies come from the shift memo (coeffs.shifted), so
        equal shifts are one object across every expansion.
        """
        if not self.m <= m <= self.rank:
            raise ValueError("element is %d-symmetric, not read at m=%d" % (self.m, m))
        if m == self.m:
            return self  # instances are read-only
        out = {}
        for tau, p in self.terms.items():
            for key, e in orbit(tau, self.m, self.rank, m - self.m):
                out[key] = shifted(p, e)
        return self._raw(self.rank, out, m)

    @property
    def element(self):
        """The element in the standard basis, expansion(rank); nothing is stored."""
        return self.expansion(self.rank)

    def letters(self, c, letters):
        """sum over letters (barred, k, a, b) of k v^a q^b Phi_c (Phibar_c if barred).

        The image is max(m, c)-symmetric; it is sum_tau p_tau times the
        image of M^{tau|m}, one coeffs.add_product per entry (tau, sigma) of
        the certified orbit rows (_orbit_image).  Its coefficients are
        interned: word_orbit and _d_row keep them.
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
        terms = {sigma: interned(r) for sigma, r in finish_all(acc).items()}
        return self._raw(n, terms, max(self.m, c))

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
        for lam, c in self.element.terms.items():
            a = lam[i - 1] if i - 1 < len(lam) else 0
            b = lam[i] if i < len(lam) else 0
            if a == b:
                add_term(acc, lam, c.shift(v_exp=sign))
            else:
                add_term(acc, swap(lam, i), c)
                if (b - a) * sign > 0:
                    add_term(acc, lam, c.echo(sign))
        return self._raw(n, acc)

    def omega(self):
        """The degree-raising rotation M^lambda -> M^{omega*(lambda)}."""
        n = self.rank
        return self._raw(n, {omega_star(lam, n): c for lam, c in self.element.terms.items()})

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


@memoized
def word_orbit(word, n):
    """The steps (c, letters) of word applied to M^0 at rank n, first step first."""
    if not word:
        return ModuleElement._raw(n, {(): interned(ONE)}, 0)
    return word_orbit(word[:-1], n).letters(*word[-1])


class MSymmetryViolation(ConsistencyError):
    """An element fed to the m-symmetric expansion was not m-symmetric."""


def msym_expand(x, m):
    """The orbit form at index m of an m-symmetric ModuleElement x.

    Its terms are those of x at the representatives for m, the keys whose
    padded tail p[m:] is weakly decreasing; its element is x again.  The
    certificate is the definition of the orbit form: on each representative
    tau's orbit, walked with compositions.orbit as expansion walks it, every
    key kappa must hold v^{inv(kappa) - inv(tau)} x_tau, and every key of x
    must lie on a walked orbit, else MSymmetryViolation names the first bad
    key.

    Per offset e the reference for p = x_tau is the shift memo's copy of
    p v^e (coeffs.memo_shift, which never inserts), else p.shift(v_exp=e).
    A key holding that very object is accepted; any other object is
    compared with it term by term.  Identity implies have == p v^e: the memo entry
    keeps p, so id(p) is not reused while the entry lives and the entry
    belongs to p; its copy is interned(p v^e), equal in value to p v^e; and
    no CoeffPoly is mutated once built (coeffs.py).  An element that
    expansion(m) built from its orbit form holds exactly these copies.

    The check holds exactly when H_i x = v^-1 x for every i > m:

    - (<=) Take a block {kappa, s_i kappa} with i > m and kappa_i <
      kappa_{i+1}.  Swapping removes exactly one strict ascending pair, so
      the orbit offsets are e and e-1, and H_i(v^e M^kappa + v^{e-1}
      M^{s_i kappa}) = v^-1 (v^e M^kappa + v^{e-1} M^{s_i kappa}).  An
      equal pair is scaled by v^-1.  So every orbit sum is an H_i = v^-1
      eigenvector, and so is any combination of them.
    - (=>) The M^{s_i kappa} coordinate of H_i x = v^-1 x gives c_{s_i
      kappa} = v^-1 c_kappa at every ascent kappa.  Ascent swaps sort the
      tail into tau's, one offset at a time, so on each orbit x is fixed by
      its value at the representative, which is nonzero wherever the orbit
      meets the support.
    """
    n = x.rank
    if not 0 <= m <= n:
        raise ValueError("m out of range")
    terms = x.element.terms
    reps = {}
    walked = 0
    for tau, p in terms.items():
        if partition_length(tau) > m:
            continue
        reps[tau] = p
        # one p v^e per offset: the shift memo's copy, else a shifted copy
        wants = {}
        for kappa, e in orbit(tau, m, n):
            want = wants.get(e)
            if want is None:
                want = memo_shift(p, e)
                want = wants[e] = p.shift(v_exp=e) if want is None else want
            have = terms.get(kappa)
            if have is not want and (have is None or have.terms != want.terms):
                raise MSymmetryViolation(
                    "coefficient at %r is off its orbit; not %d-symmetric" % (kappa, m))
            walked += 1
    if walked != len(terms):
        # orbits are disjoint and every walked key is a term
        seen = {kappa for tau in reps for kappa, _ in orbit(tau, m, n)}
        stray = next(kappa for kappa in terms if kappa not in seen)
        raise MSymmetryViolation(
            "%r lies on no orbit of a representative term; not %d-symmetric" % (stray, m))
    return ModuleElement._raw(n, reps, m)


@memoized
def _orbit_image(tau, m, c, n, barred):
    """The image of M^{tau|m} under Phi_c (Phibar_c if barred), certified.

    Returns its coefficients at the representatives for max(m, c),
    interned, since the memo keeps them.  The image is sum_kappa v^e
    Phi_c(M^kappa) over the keys kappa of the orbit with offsets e;
    Phi_c(M^kappa) is the prefix p[:c-1] of p = omega*(kappa) followed by
    the row of the word p[c-1:] (_letter_row), since H_c ... H_{n-1} only
    touch positions c..n.  Each row entry is added in at its offset by
    coeffs.add_product.
    """
    acc = {}
    for kappa, e in orbit(tau, m, n):
        p = omega_star(kappa, n)
        prefix = p[: c - 1]
        for u, r in _letter_row(p[c - 1 :], barred).items():
            add_product(acc.setdefault(prefix + u, {}), r, ONE, 1, e)
    try:
        reps = msym_expand(ModuleElement._raw(n, finish_all(acc)), max(m, c)).terms
    except MSymmetryViolation as exc:
        raise MSymmetryViolation("%s_%d of M^{%r|%d} at rank %d: %s"
                                 % ("Phibar" if barred else "Phi", c, tau, m, n, exc)) from None
    return {sigma: interned(r) for sigma, r in reps.items()}


@memoized
def _letter_row(word, barred):
    """The row of one letter on a word, by Phi_m = H_m Phi_{m+1} read locally.

    The row is H_1 ... H_{L-1} M^word over a word of length L with a positive
    last entry (inverse generators if barred), as a dict {u: c} of its
    q-free terms c M^u, each c interned since the memo keeps it.  A
    one-entry word is its own row (Phi_n = omega, which _orbit_image has
    applied).  Otherwise H_2 ... H_{L-1} leave the first entry alone, so the
    row is H_1 (or H_1^{-1}) applied to word[0] followed by the row of
    word[1:].
    """
    if len(word) == 1:
        return {word: interned(ONE)}
    head = word[:1]
    x = ModuleElement._raw(
        len(word), {head + u: r for u, r in _letter_row(word[1:], barred).items()})
    x = x.hi_inv(1) if barred else x.hi(1)
    return {u: interned(r) for u, r in x.terms.items()}


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

def d_word(lam):
    """The star chain of d(M^lambda) as a word: one Phibar step per box."""
    if not lam:
        return ()
    star, m, _ = lambda_star(lam)
    return d_word(star) + ((m, _PHIBAR),)


def d_basis(lam, n):
    """d(M^lambda), built once per (rank, lambda) as the word d_word(lambda).

    M^lambda = Phi_m M^{lambda*} with m = l(lambda): omega takes the padded
    lambda* = (lambda_m - 1, lambda_1, ..., lambda_{m-1}, 0, ..., 0) to
    (lambda_1, ..., lambda_{m-1}, 0, ..., 0, lambda_m), with lambda_m at
    position n, and H_{n-1}, ..., H_m carry it back to position m one plain
    swap at a time, each on an ascent 0 < lambda_m.  d is semilinear with
    bar(H_i) = H_i^{-1} and bar-invariant omega, so d(M^lambda) =
    Phibar_m d(M^{lambda*}), and down the star chain to d(M^0) = M^0 the row
    is the Phibar word on M^0, built by word_orbit and read at m = n.
    """
    lam = canonicalize(lam)
    if len(lam) > n:
        raise ValueError("rank %d too small for %r" % (n, lam))
    return _d_row(lam, n)


@memoized
def _d_row(lam, n):
    """The row of d_basis: the expansion at m = n of the word's orbit form."""
    return ModuleElement._raw(n, dict(word_orbit(d_word(lam), n).expansion(n).terms))


def bar_d(x):
    """The semilinear bar involution of the module."""
    acc = {}
    for lam, c in x.element.terms.items():
        cb = c.bar()
        for nu, r in d_basis(lam, x.rank).terms.items():
            add_product(acc.setdefault(nu, {}), r, cb)
    return ModuleElement._raw(x.rank, finish_all(acc))
