"""Exact sparse Laurent polynomials in v and q over the integers.

Every scalar in this package lives in Z[v,v^-1,q,q^-1].  The Hecke parameter
t is the square of v and is never stored separately: a term "t^k" is the term
v^{2k}.  Coefficients are arbitrary-precision Python ints.

A polynomial is a map (v_exp, q_exp) -> nonzero int.  Instances are treated
as immutable; no method mutates self.

Sums of products are accumulated in place by one kernel: add_product adds
k v^a q^b (p r) into a plain terms dict, and finish drops the zeros and wraps
the dict as a CoeffPoly without copying it; finish_all finishes a dict of
such dicts and leaves out the zeros.  The ring operations use it too: +, -
and * are each one add_product call and finish.  Only three methods sum
terms in loops of their own: echo, the Hecke generators' hot path; shift,
which maps each term to one term; and exact_div's remainder, whose shifted
exponents would otherwise all enter _PAIRS.  The kernel takes each new
exponent pair from one shared table (_PAIRS), so equal pairs in the
coefficients it builds are one tuple object.  Keys are therefore shared
between polynomials, and the dicts behind them may be memoized: no caller may
mutate a terms dict it did not build.

What the memos keep is hash-consed: at each memo boundary (the letter
rows, the letters' orbit forms, the certified orbit-image rows, the
quotients, the b_partition factors, the orbit rows and the KL coefficients)
a coefficient is replaced by interned(c), the one object of its value, and
the shifted copies of the orbit expansions come from the shift memo
shifted(p, e).  One CoeffPoly is therefore held by many memos at once, so
nothing may mutate a CoeffPoly or its terms once it is built: a change
would reach every holder.  memo_shift(p, e) peeks at the shift memo without
inserting: it returns the memo's copy of p v^e, or None.  A memo entry keeps
p, so no other object takes id(p) while the entry lives, and the copy is
interned(p v^e), equal to p v^e; a coefficient that is that very object
therefore has the value p v^e, which msym_expand uses to accept an orbit
key without comparing its terms.
"""

from __future__ import annotations

from .memo import memoized, table


class NonExactDivision(ArithmeticError):
    """Raised when exact_div is asked for a division with remainder.

    In the pairing pipeline an inexact division signals an internal
    inconsistency, never a legitimate outcome.
    """


class ConsistencyError(RuntimeError):
    """A certified identity failed; the computed object cannot be trusted."""


class CoeffPoly:
    """Sparse Laurent polynomial in v and q with int coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms: dict {(v_exp, q_exp): coeff}; zero coefficients are dropped
        if terms:
            self.terms = {e: c for e, c in terms.items() if c}
        else:
            self.terms = {}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero():
        return CoeffPoly()

    @staticmethod
    def one():
        return CoeffPoly({(0, 0): 1})

    @staticmethod
    def integer(c):
        return CoeffPoly({(0, 0): c})

    @staticmethod
    def monomial(c, v_exp=0, q_exp=0):
        return CoeffPoly({(v_exp, q_exp): c})

    @staticmethod
    def v_power(k):
        return CoeffPoly({(k, 0): 1})

    @staticmethod
    def q_power(k):
        return CoeffPoly({(0, k): 1})

    @staticmethod
    def t_power(k):
        """t^k = v^{2k}."""
        return CoeffPoly({(2 * k, 0): 1})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        terms = dict(self.terms)
        add_product(terms, other, ONE)
        return finish(terms)

    def __sub__(self, other):
        terms = dict(self.terms)
        add_product(terms, other, ONE, -1)
        return finish(terms)

    def __neg__(self):
        out = CoeffPoly.__new__(CoeffPoly)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __mul__(self, other):
        terms = {}
        add_product(terms, self, other)
        return finish(terms)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = CoeffPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def shift(self, v_exp=0, q_exp=0):
        """Multiply by the monomial v^{v_exp} q^{q_exp}.

        The exponent pairs come from the shared table, like add_product's,
        and the zero shift is self (instances are immutable).
        """
        if not v_exp and not q_exp:
            return self
        pairs = _PAIRS
        terms = {}
        for (a, b), c in self.terms.items():
            e = (a + v_exp, b + q_exp)
            terms[pairs.setdefault(e, e)] = c
        out = CoeffPoly.__new__(CoeffPoly)
        out.terms = terms
        return out

    def echo(self, sign):
        """sign (v - v^-1) self, as two shifted copies of self.

        The echo term of the Hecke generators.  Like add_product, it takes
        each exponent pair from the shared table.
        """
        pairs = _PAIRS
        terms = {}
        for (a, b), x in self.terms.items():
            e = (a + 1, b)
            terms[pairs.setdefault(e, e)] = sign * x
        for (a, b), x in self.terms.items():
            e = (a - 1, b)
            s = terms.get(e)
            if s is None:
                terms[pairs.setdefault(e, e)] = -sign * x
            elif s == sign * x:
                del terms[e]
            else:
                terms[e] = s - sign * x
        out = CoeffPoly.__new__(CoeffPoly)
        out.terms = terms
        return out

    def __eq__(self, other):
        return isinstance(other, CoeffPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    # -- involution and predicates ------------------------------------------

    def bar(self):
        """The bar involution v -> v^-1, q -> q^-1."""
        out = CoeffPoly.__new__(CoeffPoly)
        out.terms = {(-a, -b): c for (a, b), c in self.terms.items()}
        return out

    def is_nonneg(self):
        return all(c >= 0 for c in self.terms.values())

    def is_q_polynomial(self):
        return all(b >= 0 for (_, b) in self.terms)

    def is_q_free(self):
        return all(b == 0 for (_, b) in self.terms)

    def is_v_polynomial(self):
        return all(a >= 0 for (a, _) in self.terms)

    def min_v_exp(self):
        """Smallest v exponent present, or None for the zero polynomial."""
        if not self.terms:
            return None
        return min(a for (a, _) in self.terms)

    def specialize_q0(self):
        """Set q = 0.  Requires all q exponents nonnegative."""
        if not self.is_q_polynomial():
            raise ValueError("q -> 0 on a polynomial with negative q exponents")
        out = CoeffPoly.__new__(CoeffPoly)
        out.terms = {e: c for e, c in self.terms.items() if e[1] == 0}
        return out

    # -- exact division ------------------------------------------------------

    def exact_div(self, d):
        """Exact quotient self / d in Z[v,v^-1,q,q^-1].

        Raises NonExactDivision if d is zero or the division leaves a
        remainder.  Works by monomial long division after shifting both
        operands to nonnegative exponents; for an exact division the leading
        term of the dividend is always divisible by the leading term of the
        divisor, so no field of fractions is needed.
        """
        if not d.terms:
            raise NonExactDivision("division by zero")
        if not self.terms:
            return CoeffPoly.zero()
        if len(d.terms) == 1 and d.terms.get((0, 0)) == 1:
            return self  # instances are immutable; a memoized quotient then costs no copy
        sv = min(a for (a, _) in self.terms)
        sq = min(b for (_, b) in self.terms)
        dv = min(a for (a, _) in d.terms)
        dq = min(b for (_, b) in d.terms)
        rem = dict(self.shift(-sv, -sq).terms)
        div = d.shift(-dv, -dq).terms
        dlead = max(div)  # lex on (v_exp, q_exp)
        dc = div[dlead]
        quot = {}
        while rem:
            lead = max(rem)
            c = rem[lead]
            ev, eq = lead[0] - dlead[0], lead[1] - dlead[1]
            if ev < 0 or eq < 0 or c % dc:
                raise NonExactDivision
            f = c // dc
            quot[(ev, eq)] = f
            for (a, b), x in div.items():
                e = (a + ev, b + eq)
                s = rem.get(e, 0) - f * x
                if s:
                    rem[e] = s
                elif e in rem:
                    del rem[e]
        out = CoeffPoly.__new__(CoeffPoly)
        out.terms = quot
        return out.shift(sv - dv, sq - dq)

    # -- norm factors ---------------------------------------------------------

    @staticmethod
    def phi(m):
        """phi_m(t) = prod_{i=1..m} (1 - t^i), in t = v^2."""
        result = CoeffPoly.one()
        for i in range(1, m + 1):
            result = result * (CoeffPoly.one() - CoeffPoly.t_power(i))
        return result

    @staticmethod
    @memoized
    def b_partition(pi):
        """b_pi(t) = prod_{a>=1} phi_{m_a}(t) over part multiplicities of pi.

        pi must be a weakly decreasing tuple.  Memoized by pi, and
        interned, since the memo keeps it.
        """
        if any(pi[i] < pi[i + 1] for i in range(len(pi) - 1)):
            raise ValueError("b is defined for partitions only")
        mult = {}
        for a in pi:
            if a:
                mult[a] = mult.get(a, 0) + 1
        result = CoeffPoly.one()
        for m in mult.values():
            result = result * CoeffPoly.phi(m)
        return interned(result)

    # -- serialization ---------------------------------------------------------

    def to_json(self):
        """Term list sorted by (q, v) ascending, coefficients as strings."""
        return [
            {"v": a, "q": b, "c": str(c)}
            for (a, b), c in sorted(self.terms.items(), key=lambda e: (e[0][1], e[0][0]))
        ]

    @staticmethod
    def from_json(data):
        """The inverse of to_json; entries with one (v, q) are summed, a zero sum dropped."""
        terms = {}
        for t in data:
            e = (int(t["v"]), int(t["q"]))
            terms[e] = terms.get(e, 0) + int(t["c"])
        return CoeffPoly(terms)

    # -- printing ---------------------------------------------------------------

    def pretty(self, use_t=None):
        """Human form; writes t for v^2 when every v exponent is even.

        Callers printing several coefficients side by side pass use_t to keep
        the choice uniform across the whole expression.
        """
        if not self.terms:
            return "0"
        if use_t is None or use_t:
            # t stands for v^2, so any odd exponent forces the v form
            use_t = all(a % 2 == 0 for (a, _) in self.terms)
        parts = []
        for (a, b), c in sorted(self.terms.items(), key=lambda e: (e[0][1], e[0][0])):
            factors = []
            if use_t:
                if a:
                    k = a // 2
                    factors.append("t" if k == 1 else "t^%d" % k)
            elif a:
                factors.append("v" if a == 1 else "v^%d" % a)
            if b:
                factors.append("q" if b == 1 else "q^%d" % b)
            mag = abs(c)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "CoeffPoly(%s)" % self.pretty()


# one tuple per (v_exp, q_exp) among the terms add_product inserts
_PAIRS = table()


def add_product(terms, p, r, k=1, a=0, b=0):
    """terms += k v^a q^b (p * r), in place; terms is a plain dict of terms.

    A pair new to terms is inserted as its shared tuple from _PAIRS; an
    existing key keeps its object.  Sums that cancel stay as zeros until
    finish.  A monomial factor is folded into (k, a, b), which makes the
    common case, one side a monomial, a single pass.
    """
    if len(p.terms) == 1:
        p, r = r, p
    pairs = _PAIRS
    get = terms.get
    if len(r.terms) == 1:
        ((a2, b2), y), = r.terms.items()
        k *= y
        a += a2
        b += b2
        for (a1, b1), x in p.terms.items():
            e = (a1 + a, b1 + b)
            s = get(e)
            if s is None:
                terms[pairs.setdefault(e, e)] = k * x
            else:
                terms[e] = s + k * x
        return
    for (a1, b1), x in p.terms.items():
        x *= k
        a1 += a
        b1 += b
        for (a2, b2), y in r.terms.items():
            e = (a1 + a2, b1 + b2)
            s = get(e)
            if s is None:
                terms[pairs.setdefault(e, e)] = x * y
            else:
                terms[e] = s + x * y


# one CoeffPoly per value among the coefficients the memos keep
_INTERNED = table()
# (id(p), e) -> (p, interned(p v^e)); the entry keeps p, so its id is not reused
_SHIFTS = table()


def interned(c):
    """The one CoeffPoly equal to c that the memos keep; c itself if its value is new."""
    return _INTERNED.setdefault(c, c)


def shifted(p, e):
    """interned(p v^e), memoized per (p, e); p itself at e = 0."""
    if not e:
        return p
    key = (id(p), e)
    hit = _SHIFTS.get(key)
    if hit is None:
        hit = _SHIFTS[key] = (p, interned(p.shift(v_exp=e)))
    return hit[1]


def memo_shift(p, e):
    """The shift memo's copy of p v^e, shifted(p, e), if it holds one, else None.

    A peek: it never inserts.  p itself at e = 0, as shifted gives it.
    """
    if not e:
        return p
    hit = _SHIFTS.get((id(p), e))
    return None if hit is None else hit[1]


def finish(terms):
    """The CoeffPoly over an accumulated terms dict, zeros dropped, not copied."""
    zeros = [e for e, c in terms.items() if not c]
    for e in zeros:
        del terms[e]
    out = CoeffPoly.__new__(CoeffPoly)
    out.terms = terms
    return out


def finish_all(acc):
    """{key: finish(t)} over a dict of accumulated terms dicts, the zero coefficients left out."""
    out = {}
    for key, t in acc.items():
        c = finish(t)
        if c:
            out[key] = c
    return out


ZERO = CoeffPoly.zero()
ONE = CoeffPoly.one()
MINUS_ONE = CoeffPoly.integer(-1)
V = CoeffPoly.v_power(1)
VINV = CoeffPoly.v_power(-1)
V_MINUS_VINV = V - VINV
