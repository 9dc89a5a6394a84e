"""Composition Kostka functions and the conjecture scanner.

K_{lambda,mu}(q,t) = <KL_lambda, E~_mu> is the stable scalar product of the
Kazhdan-Lusztig element over lambda with the Macdonald element over mu, both
read in the m-symmetric basis M^{tau|m}.  quotients divides each coefficient
of the Macdonald side, a letter word's expansion, by the Hall-Littlewood
factor b of the partition tail, exactly and once per memoized expansion
(_quotients), so the pairing is a plain sum of products.  The value is
certified stable under a rank bump.

The module also carries the independent cross-check routes: Schur
polynomials by tableau enumeration in place of the KL solver, and the
charge statistic for the q=0 partition case.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from collections import namedtuple

from .cache import cached
from .coeffs import (
    CoeffPoly,
    ConsistencyError,
    NonExactDivision,
    ONE,
    V,
    ZERO,
    add_product,
    finish,
    interned,
)
from .compositions import (
    MarkedDiagram,
    all_markings,
    canonicalize,
    compositions_of,
    default_rank,
    format_composition,
    format_marked,
    marking_stats,
    pad,
    partition_length,
    swap,
    weight,
)
from .kl import kl_element
from .macdonald import e_orbit, e_word, marked_word
from .memo import memoized
from .parabolic import ModuleElement, msym_expand, word_orbit
from .polyrep import ZPoly, to_module


class KostkaResult(namedtuple("KostkaResult", "lam mu value m rank is_polynomial_in_v is_nonneg")):
    __slots__ = ()


# -- m-symmetric expansions --------------------------------------------------


def msym_basis(tau, m, n):
    """The orbit sum M^{tau|m} at rank n, normalized at the representative."""
    return ModuleElement(n, {tau: ONE}, m).element


def quotients(y):
    """y with each coefficient p_tau divided by b(tau[m:]), the pairing's factor.

    Every division must be exact, else NonExactDivision: y was not a
    genuinely stable-paired object.  The quotients are interned, since the
    memo _quotients keeps them.
    """
    return ModuleElement._raw(y.rank, {
        tau: interned(c.exact_div(CoeffPoly.b_partition(tau[y.m :])))
        for tau, c in y.terms.items()
    }, y.m)


def pair(x, yq):
    """The stable scalar product <x, y> of two orbit forms at one (m, rank).

    yq is quotients(y): the b-division is already done, so the pairing is
    the sum over the representatives tau of x_tau yq_tau.
    """
    if x.m != yq.m:
        raise ValueError("expansions live at different m")
    if x.rank != yq.rank:
        raise ValueError("rank mismatch")
    out = {}
    y_terms = yq.terms
    for tau, xc in x.terms.items():
        yc = y_terms.get(tau)
        if yc is not None:
            add_product(out, xc, yc)
    return finish(out)


# -- Kostka functions ---------------------------------------------------------


@memoized
def _kl_expansion(lam, m, n):
    return kl_element(lam, n).expansion(m)


@memoized
def _quotients(word, m, n):
    """quotients of the letter word's element (parabolic.word_orbit) read at m."""
    return quotients(word_orbit(word, n).expansion(m))


def _ranks(lam, mu):
    """The pairing ranks (m, n) of lambda against the shape mu; mu = () gives the KL rank."""
    m = max(partition_length(lam), len(mu))
    return m, max(m + weight(lam) + 1, 2)


def kostka(lam, mu):
    """K_{lambda,mu}(q,t) with its positivity flags.

    Ranks: m = max(pl(lambda), l(mu)), n = m + weight + 1 (_ranks); the
    value is recomputed at n+1 and must agree (stability certificate).
    """
    lam = canonicalize(lam)
    mu = canonicalize(mu)
    if weight(lam) != weight(mu):
        return KostkaResult(lam, mu, ZERO, 0, 2, True, True)
    m, n = _ranks(lam, mu)
    word = e_word(mu)
    value = pair(_kl_expansion(lam, m, n), _quotients(word, m, n))
    bumped = pair(_kl_expansion(lam, m, n + 1), _quotients(word, m, n + 1))
    if value != bumped:
        raise ConsistencyError(
            "K_{%r,%r} differs between ranks %d and %d" % (lam, mu, n, n + 1)
        )
    if not value.is_q_polynomial():
        raise ConsistencyError("K_{%r,%r} has a negative q power: %r" % (lam, mu, value))
    poly_v = value.is_v_polynomial()
    return KostkaResult(lam, mu, value, m, n, poly_v, poly_v and value.is_nonneg())


def kostka_q0_check(lam, max_len=None):
    """kostka(lam, .)(q=0) reproduces the KL expansion, coefficient by coefficient.

    mu runs over every composition of the right weight that fits inside the
    KL element's own rank (those coefficients are rank-stable), so vanishing
    off the support is probed along with the support itself.  max_len trims
    the mu window; entries past the window are simply not probed.  A window
    that holds no composition of lambda's weight compares nothing, and is
    refused with ValueError.
    """
    lam = canonicalize(lam)
    _, n = _ranks(lam, ())
    window = n if max_len is None else min(max_len, n)
    mus = compositions_of(weight(lam), window)
    if not mus:
        raise ValueError("no composition of weight %d has at most %d parts"
                         % (weight(lam), window))
    values = ((mu, kostka(lam, mu).value) for mu in mus)
    return next(_q0_disagreements(kl_element(lam, n), values), None) is None


def _q0_disagreements(kl, values):
    """The mu of values, pairs (mu, K_{lambda,mu}), where K at q=0 is not the
    coefficient of the KL element kl at mu.

    A value with a negative q power has no q=0 part and disagrees.  The
    coefficients are the terms of kl.expansion(kl.rank); no element is
    wrapped around them.
    """
    coeffs = kl.expansion(kl.rank).terms
    for mu, val in values:
        try:
            q0 = val.specialize_q0()
        except ValueError:
            q0 = None
        if q0 != coeffs.get(mu, ZERO):
            yield mu


def marked_kostka(lam, d):
    """The q-free refinement K_{lambda,mu-bar}(t) = t^L <KL, psi(E~_marked)>."""
    lam = canonicalize(lam)
    shape = canonicalize(d.shape)
    if shape != d.shape:
        d = MarkedDiagram(shape, d.marked)
    if weight(lam) != weight(shape):
        raise ValueError("weights differ: %r vs %r" % (lam, shape))
    m, n = _ranks(lam, shape)
    _, l_stat = marking_stats(d)
    value = pair(_kl_expansion(lam, m, n), _quotients(marked_word(d), m, n))
    value = value.shift(v_exp=2 * l_stat)
    if not value.is_q_free():
        raise ConsistencyError("marked Kostka of %r picked up q: %r" % (shape, value))
    return value


def marked_decomposition_check(lam, mu):
    """sum over markings of q^A K_{lambda,mu-bar} equals K_{lambda,mu}."""
    lam = canonicalize(lam)
    mu = canonicalize(mu)
    return _marking_sum(mu, lambda d: marked_kostka(lam, d)) == kostka(lam, mu).value


def _marking_sum(mu, value_of):
    """sum over the markings d of mu of q^A(d) value_of(d), or None if a part is missing."""
    total = {}
    for d in all_markings(mu):
        part = value_of(d)
        if part is None:
            return None
        add_product(total, part, ONE, 1, 0, marking_stats(d)[0])
    return finish(total)


# -- independent routes: Schur pipeline and the charge statistic --------------


def _ssyt(shape, maxentry, content):
    """Semistandard fillings of a partition shape, entries 1..maxentry.

    content, when given, is the required multiset of entries (list of counts,
    mutated during backtracking).
    """
    cells = [(i, j) for i, r in enumerate(shape) for j in range(r)]
    grid = [[0] * r for r in shape]
    out = []

    def place(k):
        if k == len(cells):
            out.append(tuple(tuple(row) for row in grid))
            return
        i, j = cells[k]
        lo = grid[i][j - 1] if j else 1
        if i:
            lo = max(lo, grid[i - 1][j] + 1)
        for val in range(lo, maxentry + 1):
            if content is not None:
                if val > len(content) or content[val - 1] == 0:
                    continue
                content[val - 1] -= 1
            grid[i][j] = val
            place(k + 1)
            grid[i][j] = 0
            if content is not None:
                content[val - 1] += 1

    place(0)
    return out


def schur_z(lam, n):
    """Schur polynomial s_lambda(z_1..z_n) by tableau enumeration."""
    lam = canonicalize(lam)
    if any(lam[k] < lam[k + 1] for k in range(len(lam) - 1)):
        raise ValueError("%r is not a partition" % (lam,))
    acc = {}
    for t in _ssyt(lam, n, None):
        cnt = [0] * n
        for row in t:
            for x in row:
                cnt[x - 1] += 1
        key = canonicalize(tuple(cnt))
        acc[key] = acc.get(key, ZERO) + ONE
    return ZPoly(n, acc)


def kostka_via_schur(lam, mu):
    """kostka with the KL solver swapped for the combinatorial Schur element."""
    lam = canonicalize(lam)
    mu = canonicalize(mu)
    if any(lam[k] < lam[k + 1] for k in range(len(lam) - 1)):
        raise ValueError("%r is not a partition" % (lam,))
    if weight(lam) != weight(mu):
        return ZERO
    m, n = _ranks(lam, mu)
    x = msym_expand(to_module(schur_z(lam, n)), m)
    return pair(x, _quotients(e_word(mu), m, n))


def _charge(word):
    """Lascoux-Schutzenberger charge of a word with partition content."""
    w = list(word)
    total = 0
    while w:
        top = max(w)
        cur = len(w) - 1 - w[::-1].index(1)
        chosen = [cur]
        for a in range(2, top + 1):
            for k in itertools.chain(range(cur - 1, -1, -1), range(len(w) - 1, cur, -1)):
                if w[k] == a:
                    cur = k
                    chosen.append(k)
                    break
            else:
                raise ValueError("content of %r is not a partition" % (word,))
        rank = {w[k]: r for r, k in enumerate(sorted(chosen))}
        idx = 0
        for a in range(2, top + 1):
            if rank[a] < rank[a - 1]:
                idx += 1
            total += idx
        for k in sorted(chosen, reverse=True):
            del w[k]
    return total


def charge_oracle(lam, mu):
    """Kostka-Foulkes polynomial sum of t^charge over SSYT(lam, mu).

    Tableau words are read row by row, each row right to left.
    """
    lam = canonicalize(lam)
    mu = canonicalize(mu)
    for pi in (lam, mu):
        if any(pi[k] < pi[k + 1] for k in range(len(pi) - 1)):
            raise ValueError("%r is not a partition" % (pi,))
    if weight(lam) != weight(mu):
        return ZERO
    total = ZERO
    for t in _ssyt(lam, max(len(mu), 1), list(mu)):
        word = []
        for row in t:
            word.extend(reversed(row))
        total = total + CoeffPoly.t_power(_charge(word))
    return total


# -- the scanner ---------------------------------------------------------------


def psi_e_polynomial(mu):
    """Whether every coefficient of psi(E~_mu) lies in Z[v,q] (no negatives).

    Each coefficient is v^e, e >= 0, times one at a representative, so the
    representatives decide.
    """
    mu = canonicalize(mu)
    coeffs = e_orbit(mu, default_rank(mu)).terms.values()
    return all(c.is_v_polynomial() and c.is_q_polynomial() for c in coeffs)


def cached_value(lam, mu, d=None, cache_dir=None):
    """K_{lambda,mu}, or its refinement over the marked diagram d, through the cache.

    The one reader and writer of the value entries: kind "kostka" keyed by
    lambda and mu, or kind "marked" keyed by lambda and d, the value under
    the field "value".  With cache_dir None the value is computed and the
    key is never formatted.
    """
    key = None
    if cache_dir is not None:
        key = {"lambda": format_composition(lam)}
        if d is None:
            key["mu"] = format_composition(mu)
        else:
            key["marked"] = format_marked(d)
    return cached(cache_dir, "kostka" if d is None else "marked", key, "value",
                  CoeffPoly.from_json,
                  lambda: kostka(lam, mu).value if d is None else marked_kostka(lam, d))


def _scan_value(lam, mu, d, cache_dir, records):
    """cached_value, or None with an "internal" record in records on a failure.

    A value that fails a certificate (ConsistencyError, NonExactDivision) is
    not cached.
    """
    try:
        return cached_value(lam, mu, d, cache_dir)
    except (ConsistencyError, NonExactDivision) as exc:
        detail = type(exc).__name__ + (": %s" % exc if str(exc) else "")
        records.append(_violation("internal", lam, mu, None, detail, d))
        return None


def _scan_lambda(lam, domain, marked, max_len, cache_dir):
    """Every value of lambda, read or computed through the cache, and every check on them.

    Returns lambda's K row {mu: K_{lambda,mu}}, its violation records and
    the seconds of its four phases (see scan).  The marked values and the
    KL element over lambda do not outlive the call.
    """
    records = []
    row = {}
    refined = {}  # marked diagram -> refinement
    t0 = time.perf_counter()
    for mu in domain[weight(lam)]:
        val = _scan_value(lam, mu, None, cache_dir, records)
        if val is not None:
            row[mu] = val
        if marked:
            for d in all_markings(mu):
                val = _scan_value(lam, mu, d, cache_dir, records)
                if val is not None:
                    refined[d] = val
    t1 = time.perf_counter()
    for mu, val in row.items():
        if not (val.is_v_polynomial() and val.is_q_polynomial() and val.is_nonneg()):
            records.append(_violation("kostka_positivity", lam, mu, val))
        total = _marking_sum(mu, refined.get)
        if total is not None and total != val:
            records.append(_violation("marked_decomposition", lam, mu, total,
                                      "sum over markings differs"))
    for d, val in refined.items():
        if not (val.is_q_free() and val.is_v_polynomial() and val.is_nonneg()):
            records.append(_violation("marked_positivity", lam, d.shape, val, marking=d))
    # the scan's mu are its lambdas: each psi(E~_mu) is checked once, with its lambda
    if not psi_e_polynomial(lam):
        records.append(_violation("psi_e_polynomial", None, lam, None,
                                  "coefficient outside Z[v,q]"))
    t2 = time.perf_counter()
    p_lam = pad(lam, max_len + 1)
    for mu, val in row.items():
        p_mu = pad(mu, max_len + 1)
        for i in range(1, len(mu) + 1):
            if p_mu[i - 1] > p_mu[i] and p_lam[i - 1] >= p_lam[i]:
                other = row.get(swap(mu, i))
                if other is not None and other != val * V:
                    records.append(_violation("mpart", lam, mu, other, "expected v*K at i=%d" % i))
    t3 = time.perf_counter()
    kl = kl_element(lam, max(_ranks(lam, ())[1], max_len + 1))
    for mu in _q0_disagreements(kl, row.items()):
        records.append(_violation("q0_kl", lam, mu, row[mu],
                                  "q=0 disagrees with the KL coefficient"))
    t4 = time.perf_counter()
    seconds = {"kostka": t1 - t0, "conjectures": t2 - t1, "mpart": t3 - t2, "q0_kl": t4 - t3}
    return row, records, seconds


def scan(max_weight, max_len=None, marked=True, jobs=1, cache_dir=None,
         report_path=None, csv_path=None, progress=None):
    """Sweep all equal-weight pairs up to max_weight and hunt for violations.

    Checks per pair: K in N[v,q] (the positivity conjecture), psi(E~_mu)
    coefficient positivity, the marked refinements in N[v] with their
    decomposition identity, the Mpart exchange relation, and the q=0
    Kazhdan-Lusztig agreement.  Violations are returned as data, never
    raised.  With a cache directory every value is written as soon as it is
    computed, so a rerun, also after an interruption, skips finished values.
    With jobs > 1 the lambdas are spread over that many worker processes.
    A value whose computation fails a certificate becomes an "internal"
    violation; the checks that need it skip it, and the scan goes on.

    The scan works one lambda at a time (_scan_lambda), in four phases:
    kostka reads or computes its values, conjectures checks positivity, the
    marking sums and psi(E~_lambda), then mpart and q0_kl.  timings sums each
    phase over the lambdas, and over the workers with jobs > 1; total is the
    scan's wall time.
    """
    t_start = time.perf_counter()
    if max_len is None:
        max_len = max(max_weight, 1)
    domain = {d: compositions_of(d, max_len) for d in range(max_weight + 1)}
    all_lams = [lam for d in range(max_weight + 1) for lam in domain[d]]
    table = []  # ((lambda, mu), K) over every K row
    violations = []
    timings = dict.fromkeys(("kostka", "conjectures", "mpart", "q0_kl"), 0.0)
    worker = functools.partial(_scan_lambda, domain=domain, marked=marked,
                               max_len=max_len, cache_dir=cache_dir)
    pool = None
    if jobs > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=min(jobs, len(all_lams)),
                                   mp_context=multiprocessing.get_context("spawn"))
    try:
        results = pool.map(worker, all_lams) if pool else map(worker, all_lams)
        for k, (lam, (row, records, seconds)) in enumerate(zip(all_lams, results)):
            table.extend(((lam, mu), val) for mu, val in row.items())
            violations.extend(records)
            for name, secs in seconds.items():
                timings[name] += secs
            if progress is not None:
                progress("pairs: %d/%d lambdas done (last %s)" % (k + 1, len(all_lams), lam or "()"))
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    violations.sort(key=lambda v: (v["check"], v["lambda"] or "", v["mu"] or "", v.get("marking", "")))
    timings = {name: round(secs, 3) for name, secs in timings.items()}
    timings["total"] = round(time.perf_counter() - t_start, 3)
    table.sort()
    report = {
        "format": 1,
        "max_weight": max_weight,
        "max_len": max_len,
        "marked": marked,
        "pairs": len(table),
        "violations": violations,
        "timings": timings,
        "min_v_exponent_observed": min((val.min_v_exp() for _, val in table if val), default=None),
    }
    if report_path is not None:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if csv_path is not None:
        import csv

        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["lambda", "mu", "kostka"])
            for (lam, mu), val in table:
                writer.writerow(
                    [
                        format_composition(lam),
                        format_composition(mu),
                        json.dumps(val.to_json(), separators=(",", ":")),
                    ]
                )
    return report


def _violation(check, lam, mu, val, detail=None, marking=None):
    out = {
        "check": check,
        "lambda": None if lam is None else format_composition(lam),
        "mu": None if mu is None else format_composition(mu),
        "value": None if val is None else val.to_json(),
    }
    if detail:
        out["detail"] = detail
    if marking is not None:
        out["marking"] = format_marked(marking)
    return out
