"""Slow reference implementations, for tests only.

Most of the module is a brute-force extended affine Weyl group of type A.
Elements are pairs (tau, w): the translation by tau composed after the
permutation w, with w stored as a tuple of 0-based images.  Everything is
computed by explicit group arithmetic and breadth-first search over the
Cayley graph, so this part is slow and honest: lengths come from graph
distance, Bruhat order from the subword characterization, and minimal coset
representatives from exhaustive minimization over the finite group.

The rest are the library's former routes, kept as differential references:
the Kazhdan-Lusztig solve over the whole rank-n support, the involution row
straight from its operator word, the Phi/Phibar letters as a chain of
generator passes over the whole element, with E~ and the marked E~ built
from them, the E~ and marked E~ recursions over every key of the rank-n
support (the library's one letter, ModuleElement.letters, at m = n, where
every key is its own representative), the Weyl symmetrization of J_mu as
a breadth-first walk of S_n in right weak order, and distinct permutations
by brute force.
"""

import itertools
from functools import lru_cache

from qtkostka.bruhat import min_rep_length
from qtkostka.coeffs import CoeffPoly, ConsistencyError, MINUS_ONE, ONE, add_product, finish
from qtkostka.compositions import box_enumeration, lambda_star
from qtkostka.kl import skew_positive_part
from qtkostka.parabolic import ModuleElement, d_basis


def mul_perm(a, b):
    # (a o b)[i] = a[b[i]]: apply b first
    return tuple(a[b[i]] for i in range(len(a)))


def inv_perm(w):
    out = [0] * len(w)
    for i, im in enumerate(w):
        out[im] = i
    return tuple(out)


def gmul(x, y):
    # (t_a w)(t_b u) = t_{a + w.b} (w o u) with (w.b)_i = b_{w^{-1}(i)}
    ta, wa = x
    tb, wb = y
    wai = inv_perm(wa)
    return (
        tuple(ta[i] + tb[wai[i]] for i in range(len(ta))),
        mul_perm(wa, wb),
    )


def ginv(x):
    tau, w = x
    return (tuple(-tau[w[i]] for i in range(len(w))), inv_perm(w))


def identity(n):
    return ((0,) * n, tuple(range(n)))


def simple(i, n):
    if i == 0:
        tau = (1,) + (0,) * (n - 2) + (-1,)
        w = (n - 1,) + tuple(range(1, n - 1)) + (0,)
        return (tau, w)
    w = list(range(n))
    w[i - 1], w[i] = w[i], w[i - 1]
    return ((0,) * n, tuple(w))


def omega_el(n):
    # length-zero rotation: conjugation sends s_i to s_{i-1 mod n}
    tau = (0,) * (n - 1) + (-1,)
    w = (n - 1,) + tuple(range(n - 1))
    return (tau, w)


def omega_power(k, n):
    x = identity(n)
    step = omega_el(n) if k >= 0 else ginv(omega_el(n))
    for _ in range(abs(k)):
        x = gmul(x, step)
    return x


def component(x):
    # invariant under the affine subgroup; omega has component 1
    return -sum(x[0])


@lru_cache(maxsize=None)
def _ball(n, radius):
    """dist/parent/letter for every affine element within radius of 1."""
    e = identity(n)
    info = {e: (0, None, None)}
    frontier = [e]
    for dist in range(1, radius + 1):
        nxt = []
        for x in frontier:
            for i in range(n):
                y = gmul(x, simple(i, n))
                if y not in info:
                    info[y] = (dist, x, i)
                    nxt.append(y)
        frontier = nxt
    return info


def length(x, radius=16):
    n = len(x[0])
    y = gmul(omega_power(-component(x), n), x)
    info = _ball(n, radius)
    if y not in info:
        raise ValueError("radius %d too small for %r" % (radius, x))
    return info[y][0]


def reduced_word(x, radius=16):
    """A reduced word for the affine part of x (the omega prefix is dropped)."""
    n = len(x[0])
    y = gmul(omega_power(-component(x), n), x)
    info = _ball(n, radius)
    if y not in info:
        raise ValueError("radius %d too small for %r" % (radius, x))
    word = []
    while info[y][1] is not None:
        _, parent, letter = info[y]
        word.append(letter)
        y = parent
    word.reverse()
    return word


def _all_perms(n):
    return list(itertools.permutations(range(n)))


def min_rep(tau, radius=16):
    """Minimal-length element of the coset t_tau W (W the finite group)."""
    n = len(tau)
    t = (tuple(tau), tuple(range(n)))
    best = None
    best_len = None
    for w in _all_perms(n):
        x = gmul(t, ((0,) * n, w))
        l = length(x, radius)
        if best_len is None or l < best_len:
            best, best_len = x, l
    return best, best_len


def lower_interval(x, radius=16):
    """All affine-part elements <= x in Bruhat order, via subword products."""
    n = len(x[0])
    word = reduced_word(x, radius)
    cur = {identity(n)}
    for a in word:
        s = simple(a, n)
        cur = cur | {gmul(z, s) for z in cur}
    return cur


def oracle_leq(tau, eta, radius=16):
    """Bruhat comparison of minimal coset representatives of W t_tau, W t_eta."""
    if sum(tau) != sum(eta):
        return False
    n = len(tau)
    x, _ = min_rep(tau, radius)
    y, _ = min_rep(eta, radius)
    u = gmul(omega_power(-component(x), n), x)
    return u in lower_interval(y, radius)


# -- the full-rank Kazhdan-Lusztig solve and the word route of d -----------------


@lru_cache(maxsize=None)
def kl_solve_full(lam, n):
    """M^_lambda by the triangular solve over its whole rank-n support.

    The differential reference of qtkostka.kl's orbit-basis solve, with the
    certificates it had as the library's solve: a unit diagonal, strict
    triangularity in min_rep_length, bar-skewness at every node, coefficients
    in vZ[v], and self-duality recomputed from scratch as
    sum_mu bar(p_mu) * row_mu == el, all over the d_basis rows.
    Callers clear this memo together with the library's (clear_caches does
    not reach it).
    """
    # support closure under the involution rows
    rows = {}
    frontier = [lam]
    while frontier:
        mu = frontier.pop()
        if mu in rows:
            continue
        row = d_basis(mu, n)
        if row.terms.get(mu) != ONE:
            raise ConsistencyError("involution row of %r has a bad diagonal" % (mu,))
        rows[mu] = row
        frontier.extend(nu for nu in row.terms if nu not in rows)

    # solve top-down; acc[nu] is the right-hand side sum bar(p_mu) * r_{mu,nu},
    # accumulated in place
    ml = {mu: min_rep_length(mu, n) for mu in rows}
    order = sorted(rows, key=ml.__getitem__, reverse=True)
    if order[0] != lam:
        raise ConsistencyError("support closure of %r is not topped by it" % (lam,))
    coeffs = {lam: ONE}
    acc = {}
    for mu in order:
        if mu == lam:
            p = ONE
        else:
            g = acc.get(mu)
            if g is None:
                continue
            p = skew_positive_part(finish(g))
            if not p:
                continue
            coeffs[mu] = p
        pb = p.bar()
        for nu, r in rows[mu].terms.items():
            if nu == mu:
                continue
            if ml[nu] >= ml[mu]:
                raise ConsistencyError(
                    "involution row of %r is not strictly triangular at %r" % (mu, nu)
                )
            add_product(acc.setdefault(nu, {}), pb, r)

    el = ModuleElement(n, coeffs)
    for mu, c in el.terms.items():
        if mu == lam:
            continue
        if not c.is_q_free() or c.min_v_exp() < 1:
            raise ConsistencyError(
                "KL coefficient of %r in M^_%r leaves vZ[v]: %r" % (mu, lam, c)
            )

    # self-duality from scratch
    image = {}
    for mu, p in el.terms.items():
        pb = p.bar()
        for nu, r in rows[mu].terms.items():
            add_product(image.setdefault(nu, {}), pb, r)
    image = {nu: finish(t) for nu, t in image.items()}
    if {nu: c for nu, c in image.items() if c} != el.terms:
        raise ConsistencyError("M^_%r at rank %d is not self-dual" % (lam, n))
    return el


def d_basis_word(lam, n):
    """d(M^lambda) straight from the Phibar word over the column word.

    Each Phibar is a letter_chain of generator passes over the full element,
    down the star chain to M^0; tests compare it with d_basis, which builds
    the same word from the certified orbit letters and shares no row with it.
    """
    if not lam:
        return ModuleElement.basis((), n)
    star, m, _ = lambda_star(lam)
    return letter_chain(d_basis_word(star, n), m, True)


def letter_chain(x, m, barred):
    """Phi_m(x), or Phibar_m(x) if barred, as n - m + 1 passes over x.

    omega first, then H_{n-1} ... H_m (their inverses if barred), each pass
    a new element.
    """
    n = x.rank
    if not 1 <= m <= n:
        raise ValueError("m out of range")
    y = x.omega()
    for i in range(n - 1, m - 1, -1):
        y = y.hi_inv(i) if barred else y.hi(i)
    return y


def e_tilde_chain(lam, n):
    """E~_lambda at rank n by the star-chain recursion over letter_chain."""
    if not lam:
        return ModuleElement.basis((), n)
    star, m, a = lambda_star(lam)
    x = e_tilde_chain(star, n)
    factor = CoeffPoly.monomial(1, 2 * a, lam[m - 1])
    return letter_chain(x, m, False) - letter_chain(x, m, True).scale(factor)


def marked_e_chain(d, n):
    """The marked E~ of d at rank n as its word of letter_chain letters."""
    order, cols = box_enumeration(d.shape)
    x = ModuleElement.basis((), n)
    for s, c in zip(order, cols):
        x = letter_chain(x, c, True).scale(MINUS_ONE) if s in d.marked else letter_chain(x, c, False)
    return x


PHI = ((False, 1, 0, 0),)
PHIBAR = ((True, 1, 0, 0),)
MINUS_PHIBAR = ((True, -1, 0, 0),)


def e_tilde_full(lam, n):
    """E~_lambda at rank n over the whole support, one letter call per star step."""
    if not lam:
        return ModuleElement.basis((), n)
    star, m, a = lambda_star(lam)
    return e_tilde_full(star, n).letters(m, PHI + ((True, -1, 2 * a, lam[m - 1]),))


def marked_e_full(d, n):
    """The marked E~ of d at rank n over the whole support, one letter call per box."""
    order, cols = box_enumeration(d.shape)
    x = ModuleElement.basis((), n)
    for s, c in zip(order, cols):
        x = x.letters(c, MINUS_PHIBAR if s in d.marked else PHI)
    return x


def weyl_sum_bfs(x):
    """sum over w in S_n of v^{l(w)} F(w), F(1) = x and F(w s_i) = H_i^{-1} F(w),
    walking S_n breadth-first in right weak order, one level at a time."""
    n = x.rank
    level = {tuple(range(1, n + 1)): x}
    total = ModuleElement.zero(n)
    ell = 0
    while level:
        for y in level.values():
            total = total + y.scale(CoeffPoly.v_power(ell))
        nxt = {}
        for w, y in level.items():
            for i in range(1, n):
                if w[i - 1] < w[i]:
                    ws = w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]
                    if ws not in nxt:
                        nxt[ws] = y.hi_inv(i)
        level = nxt
        ell += 1
    return total


def distinct_permutations(items, k=None):
    """The distinct orderings of k entries of items, by brute force over all orderings."""
    return sorted(set(itertools.permutations(items, k)))
