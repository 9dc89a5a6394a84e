"""Sparse vectors with CoeffPoly coefficients over composition-keyed bases.

The linear algebra shared by the parabolic module (basis M^lambda) and the
polynomial representation (monomials z^tau): keys are trimmed composition
tuples of length at most the rank, and zero coefficients are never stored.
Subclasses name their JSON key and how a basis element prints.
"""

from __future__ import annotations

from operator import itemgetter

from .coeffs import CoeffPoly, MINUS_ONE, ONE
from .compositions import canonicalize, format_composition, pad, parse_composition


def add_term(acc, key, c):
    """acc[key] += c in a dict of coefficients, a zero sum dropped."""
    s = acc.get(key)
    s = c if s is None else s + c
    if s:
        acc[key] = s
    elif key in acc:
        del acc[key]


class SparseVector(tuple):
    """A finite CoeffPoly-combination of basis elements at rank n.

    An instance is the tuple of its fields, rank and terms first, so it is
    read-only, equal only to an instance of its class with equal fields, and
    unhashable.  The linear operations read element, the standard basis.
    """

    __slots__ = ()
    rank = property(itemgetter(0))
    terms = property(itemgetter(1))
    # the fields are read by name: a vector is no sequence and no repetition
    __iter__ = __len__ = __contains__ = __mul__ = __rmul__ = None

    JSON_KEY = None  # name of the key field in to_json, and so of the basis

    def __new__(cls, rank, terms=None, *more):
        """terms maps raw keys to coefficients; raw keys that trim alike are summed.

        more are the fields a subclass keeps after terms.
        """
        if rank < 2:
            raise ValueError("rank must be at least 2")
        out = tuple.__new__(cls, (rank, {}) + more)
        if terms:
            out._collect(terms.items())
        return out

    def __getnewargs__(self):
        # pickle rebuilds an instance through __new__, from its fields
        return self[:]

    def _collect(self, pairs):
        """Add each (raw key, coefficient) of pairs into terms, keys validated."""
        for key, c in pairs:
            if c:
                key = canonicalize(key)
                if len(key) > self.rank:
                    raise ValueError("key %r too long for rank %d" % (key, self.rank))
                add_term(self.terms, key, c)

    @classmethod
    def zero(cls, rank):
        return cls(rank)

    @classmethod
    def _raw(cls, rank, terms):
        """A vector at rank over terms, taken without checks."""
        return tuple.__new__(cls, (rank, terms))

    @property
    def element(self):
        """The vector in its standard basis: itself."""
        return self

    # -- linear structure -------------------------------------------------------

    def __add__(self, other):
        if self.JSON_KEY != other.JSON_KEY:
            raise ValueError("vectors over different bases")
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        terms = dict(self.element.terms)
        for key, c in other.element.terms.items():
            add_term(terms, key, c)
        return self._raw(self.rank, terms)

    def __sub__(self, other):
        return self + other.scale(MINUS_ONE)

    def scale(self, c):
        if c.is_zero():
            return self._raw(self.rank, {})
        return self._raw(self.rank, {key: x * c for key, x in self.element.terms.items()})

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def coefficient(self, key):
        return self.element.terms.get(canonicalize(key), CoeffPoly.zero())

    def support(self):
        return set(self.element.terms)

    def project(self):
        """Rank-lowering projection: kill keys with a positive n-th entry.

        Rank 2 is the floor.
        """
        n = self.rank
        if n < 3:
            raise ValueError("cannot project below rank 2")
        return self._raw(n - 1, {key: c for key, c in self.element.terms.items() if len(key) < n})

    # -- serialization ----------------------------------------------------------

    def to_json(self):
        return {
            "rank": self.rank,
            "terms": [
                {self.JSON_KEY: format_composition(key), "coef": c.to_json()}
                for key, c in sorted(self.element.terms.items())
            ],
        }

    @classmethod
    def from_json(cls, data):
        out = cls(data["rank"])
        out._collect(
            (parse_composition(t[cls.JSON_KEY]), CoeffPoly.from_json(t["coef"]))
            for t in data["terms"]
        )
        return out

    def basis_name(self, key):
        """The printed name of the basis element over a nonempty key."""
        raise NotImplementedError

    def pretty(self):
        terms = self.element.terms
        if not terms:
            return "0"
        use_t = all(
            a % 2 == 0 for c in terms.values() for (a, _) in c.terms
        )
        chunks = []
        for key, c in sorted(terms.items(), key=lambda kv: pad(kv[0], self.rank), reverse=True):
            if not key:
                chunks.append(c.pretty(use_t))
                continue
            name = self.basis_name(key)
            if c == ONE:
                chunks.append(name)
            else:
                cs = c.pretty(use_t)
                if len(c.terms) > 1 or cs.startswith("-"):
                    cs = "(%s)" % cs
                chunks.append("%s*%s" % (cs, name))
        return " + ".join(chunks)

    def __repr__(self):
        return "%s(rank=%d, %s)" % (type(self).__name__, self.rank, self.pretty())
