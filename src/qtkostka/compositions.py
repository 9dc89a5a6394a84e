"""Compositions, their diagrams and box statistics.

A composition is stored as a trimmed tuple of naturals (no trailing zeros);
its logical value is the infinite zero-padded sequence, so equality of the
stored tuples is padding-invariant equality.  Boxes of the diagram are pairs
(row, col), both 1-based, with 1 <= col <= lambda_row.
"""

from __future__ import annotations

from collections import namedtuple

from .memo import memoized


def canonicalize(raw):
    """Trim trailing zeros; the canonical tuple form of a composition."""
    parts = tuple(int(x) for x in raw)
    if any(x < 0 for x in parts):
        raise ValueError("composition parts must be naturals")
    return _trim(parts)


def _trim(parts):
    """A tuple of naturals without its trailing zeros, unchecked."""
    end = len(parts)
    while end and parts[end - 1] == 0:
        end -= 1
    return parts[:end]


def weight(lam):
    return sum(lam)


def default_rank(lam):
    """The rank l(lambda) + |lambda| + 1, at least 2, used when none is given."""
    return max(len(lam) + weight(lam) + 1, 2)


@memoized
def partition_length(lam):
    """pl(lambda): least m such that the tail lambda_{>m} is weakly decreasing.

    It is the i of the last strict ascent lambda_i < lambda_{i+1}, or 0
    without one.  lambda is a representative for m exactly when pl(lambda)
    <= m.  Memoized per key, since msym_expand asks it of every key it reads.
    """
    for i in range(len(lam) - 1, 0, -1):
        if lam[i - 1] < lam[i]:
            return i
    return 0


def pad(lam, n):
    if len(lam) > n:
        raise ValueError("rank %d too small for %r" % (n, lam))
    return lam + (0,) * (n - len(lam))


def swap(lam, i):
    """lambda with its entries i and i+1 (1-based) exchanged, trimmed."""
    p = pad(lam, max(len(lam), i + 1))
    return _trim(p[: i - 1] + (p[i], p[i - 1]) + p[i + 1 :])


class SortData(namedtuple("SortData", "images inversions lam_plus")):
    """The sorting permutation w^lambda at an explicit rank.

    images[i-1] = w(i); w is the shortest permutation with
    lambda^+_{w(i)} = lambda_i, and inversions = l(w).
    """

    __slots__ = ()


@memoized
def sorting_data(lam, n):
    """w^lambda, its length, and the decreasing sort lambda^+ at rank n.

    Computed by the counting formula for the shortest sorting permutation
    applied to tau = -lambda: w(i) counts j <= i with lambda_j >= lambda_i
    plus j > i with lambda_j > lambda_i.
    """
    lam = pad(lam, n)
    images = []
    for i in range(n):
        w = sum(1 for j in range(i + 1) if lam[j] >= lam[i]) + sum(
            1 for j in range(i + 1, n) if lam[j] > lam[i]
        )
        images.append(w)
    images = tuple(images)
    inv = sum(
        1 for i in range(n) for j in range(i + 1, n) if images[i] > images[j]
    )
    return SortData(images, inv, canonicalize(sorted(lam, reverse=True)))


def boxes(lam):
    """All boxes (row, col) of the diagram, row-major."""
    return [(i + 1, j + 1) for i, p in enumerate(lam) for j in range(p)]


def arm(lam, s):
    i, j = s
    if not (1 <= i <= len(lam) and 1 <= j <= lam[i - 1]):
        raise ValueError("box %r outside diagram of %r" % (s, lam))
    return lam[i - 1] - j


def leg(lam, s):
    i, j = s
    if not (1 <= i <= len(lam) and 1 <= j <= lam[i - 1]):
        raise ValueError("box %r outside diagram of %r" % (s, lam))
    li = lam[i - 1]
    above = sum(1 for k in range(1, i) if j <= lam[k - 1] + 1 <= li)
    below = sum(1 for k in range(i + 1, len(lam) + 1) if j <= lam[k - 1] <= li)
    return above + below


def column(lam, s):
    """Column length of a box: rows above it shifted by one plus rows from it down."""
    i, j = s
    if not (1 <= i <= len(lam) and 1 <= j <= lam[i - 1]):
        raise ValueError("box %r outside diagram of %r" % (s, lam))
    above = sum(1 for k in range(1, i) if j <= lam[k - 1] + 1)
    below = sum(1 for k in range(i, len(lam) + 1) if j <= lam[k - 1])
    return above + below


@memoized
def box_enumeration(lam):
    """Boxes in application order with their column lengths.

    Columns are visited rightmost first, top to bottom inside a column.
    Returns (boxes, column_lengths), both tuples in that order; memoized, so
    no caller can change what the next one reads.
    """
    out = []
    cols = []
    width = max(lam, default=0)
    for j in range(width, 0, -1):
        for i in range(1, len(lam) + 1):
            if j <= lam[i - 1]:
                out.append((i, j))
                cols.append(column(lam, (i, j)))
    return tuple(out), tuple(cols)


def lambda_star(lam):
    """One step of the recursion: (lambda*, m, a).

    m = l(lambda); lambda* = (lambda_m - 1, lambda_1, ..., lambda_{m-1});
    a = 1 + #{i <= m : lambda_i < lambda_m}.
    """
    if not lam:
        raise ValueError("lambda* of the empty composition")
    m = len(lam)
    star = canonicalize((lam[m - 1] - 1,) + lam[: m - 1])
    a = 1 + sum(1 for x in lam if x < lam[m - 1])
    return star, m, a


def omega_star(lam, n):
    """(lambda_2, ..., lambda_n, lambda_1 + 1) at rank n; its last entry is >= 1."""
    lam = pad(lam, n)
    return lam[1:] + (lam[0] + 1,)


class MarkedDiagram(namedtuple("MarkedDiagram", "shape marked")):
    """A composition shape together with a subset of its boxes, kept as a frozenset."""

    __slots__ = ()

    def __new__(cls, shape, marked):
        marked = frozenset(marked)
        if not marked <= set(boxes(shape)):
            raise ValueError("marks outside the diagram of %r" % (shape,))
        return super().__new__(cls, shape, marked)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, which _replace calls, would skip the box check
        return cls(*iterable)


@memoized
def marking_stats(d):
    """(A, L): sums of arm+1 and leg+1 over the marked boxes."""
    a = sum(arm(d.shape, s) + 1 for s in d.marked)
    l = sum(leg(d.shape, s) + 1 for s in d.marked)
    return a, l


def all_markings(lam):
    """Every marked diagram on the shape, as bitmasks over the box enumeration.

    Bit k of the mask refers to the k-th box in application order, least
    significant bit first; deterministic and reproducible.
    """
    order = box_enumeration(lam)[0]
    for mask in range(1 << len(order)):
        marked = frozenset(order[k] for k in range(len(order)) if mask >> k & 1)
        yield MarkedDiagram(lam, marked)


# -- string forms -----------------------------------------------------------


def format_composition(lam):
    return ",".join(str(x) for x in lam)


def parse_composition(text):
    text = text.strip()
    if not text:
        return ()
    try:
        return canonicalize(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError("bad composition %r" % text) from exc


def format_marked(d):
    order = box_enumeration(d.shape)[0]
    marks = ",".join("%d.%d" % s for s in order if s in d.marked)
    return format_composition(d.shape) + "|" + marks


def parse_marked(text):
    shape_text, _, marks_text = text.partition("|")
    shape = parse_composition(shape_text)
    marked = set()
    for chunk in marks_text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        r, _, c = chunk.partition(".")
        marked.add((int(r), int(c)))
    return MarkedDiagram(shape, frozenset(marked))


def orbit(tau, m, n, k=None):
    """Keys of the orbit of tau under the permutations of the tail past m.

    tau is a representative for m: its padded tail p[m:] is weakly
    decreasing.  Returns the pairs (kappa, inv(kappa) - inv(tau)), inv from
    sorting_data, for the keys kappa of the orbit whose tail past m + k is
    weakly decreasing, that is, the orbit's representatives for m + k.  The
    default k = n - m gives the whole orbit.  The tuple is memoized per
    (tau, m, n, k), so every expansion, certificate and orbit row that walks
    one orbit walks one tuple and holds its key tuples, not copies.
    """
    return _orbit(tau, m, n, n - m if k is None else k)


@memoized
def _orbit(tau, m, n, k):
    p = pad(tau, n)
    head, tail = p[:m], p[m:]
    return tuple(
        (head + t if t else _trim(head), shift) for t, shift in _tail_orbit(tail, k)
    )


@memoized
def _tail_orbit(tail, k):
    """(t, shift) for the arrangements of tail weakly decreasing past k.

    t is the arrangement with its trailing zeros trimmed.  inv counts the
    pairs i < j with kappa_i < kappa_j, and two keys of one orbit agree on
    the head and hold the same tail entries, so the pairs inside the head
    and those from the head into the tail count alike, and the decreasing
    tail of the representative has no ascending pair: shift, the difference
    of inv against the representative, is the number of strict ascending
    pairs in the arrangement.  The first k entries are placed one at a time,
    each distinct value in increasing order, so the arrangements come out
    sorted; the entries left after a placed x are exactly those that follow
    it, so x adds the count of them greater than x to shift, and the rest,
    sorted decreasing, add none.  Memoized per tail; orbit memoizes the keys.
    """
    values = sorted(set(tail))
    counts = [tail.count(x) for x in values]
    out = []

    def place(head, k, shift):
        if not k:
            rest = tuple(x for x, c in zip(reversed(values), reversed(counts)) for _ in range(c))
            out.append((_trim(head + rest), shift))
            return
        greater = len(tail) - len(head)
        for i, x in enumerate(values):
            c = counts[i]
            greater -= c
            if c:
                counts[i] = c - 1
                place(head + (x,), k - 1, shift + greater)
                counts[i] = c

    place((), k, 0)
    return tuple(out)


def compositions_of(d, max_len):
    """All trimmed compositions of weight d with length at most max_len."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative, not %d" % max_len)
    out = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            if remaining == 0:
                out.append(canonicalize(prefix))
            return
        for x in range(remaining + 1):
            rec(prefix + (x,), remaining - x, slots - 1)

    rec((), d, max_len)
    return sorted(set(out))
