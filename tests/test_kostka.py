"""Tests for the stable pairing, Kostka values, markings, oracles and the scanner."""

import json
import os
import pickle
import re
import signal
import subprocess
import sys

import pytest

import qtkostka

from qtkostka import MSymmetryViolation, msym_expand
from qtkostka.cache import cache_path, cache_put
from qtkostka.coeffs import (
    _SHIFTS,
    CoeffPoly,
    ConsistencyError,
    NonExactDivision,
    ONE,
    V,
    VINV,
    ZERO,
    memo_shift,
)
from qtkostka.compositions import (
    MarkedDiagram,
    all_markings,
    canonicalize,
    compositions_of,
    default_rank,
    format_marked,
    orbit,
    pad,
    partition_length,
)
from qtkostka.kl import kl_element
from qtkostka.kostka import (
    _scan_lambda,
    charge_oracle,
    kostka,
    kostka_q0_check,
    kostka_via_schur,
    marked_decomposition_check,
    marked_kostka,
    msym_basis,
    pair,
    psi_e_polynomial,
    quotients,
    scan,
    schur_z,
)
from qtkostka.macdonald import e_tilde, e_word, marked_e, word_orbit
from qtkostka.parabolic import ModuleElement

T = CoeffPoly.t_power(1)
Q = CoeffPoly.q_power(1)


def test_msym_basis():
    assert msym_basis((1,), 0, 2) == ModuleElement.basis((1,), 2) + ModuleElement.basis(
        (0, 1), 2
    ).scale(V)
    # head fixed, only the tail spreads
    x = msym_basis((2, 1), 1, 3)
    assert x.support() == {(2, 1), (2, 0, 1)}
    assert x.coefficient((2, 1)) == ONE
    # one term per distinct arrangement of the tail, not per permutation
    assert len(msym_basis((1,), 0, 12).terms) == 12


def _msym_elements(max_weight):
    """(label, element, m): KL, E~ and marked E~ up to max_weight, m least."""
    for d in range(max_weight + 1):
        for lam in compositions_of(d, max(d, 1)):
            n = default_rank(lam)
            yield ("kl", lam), kl_element(lam, n).element, partition_length(lam)
            yield ("e", lam), e_tilde(lam, n).element, len(lam)
            for dg in all_markings(lam):
                yield ("marked", format_marked(dg)), marked_e(dg, n), len(lam)


def test_msym_expand_round_trip():
    for label, el, least in _msym_elements(3):
        n = el.rank
        for m in range(least, n + 1):
            total = ModuleElement.zero(n)
            for tau, c in msym_expand(el, m).terms.items():
                total = total + msym_basis(tau, m, n).scale(c)
            assert total == el, (label, m)


def test_msym_basis_is_an_hi_eigenvector():
    # the premise of msym_expand's proof, checked against the generator:
    # every orbit sum M^{tau|m} has H_i = v^-1 for every i > m
    count = 0
    for n in range(2, 7):
        for d in range(5):
            for tau in compositions_of(d, n):
                for m in range(partition_length(tau), n + 1):
                    x = msym_basis(tau, m, n)
                    for i in range(m + 1, n):
                        assert x.hi(i) == x.scale(VINV), (tau, m, n, i)
                        count += 1
    assert count > 1000


def test_msym_expand_rejects_asymmetric():
    x = ModuleElement.basis((1,), 3)
    with pytest.raises(MSymmetryViolation):
        msym_expand(x, 0)


def test_msym_expand_catches_every_orbit_corruption():
    # scale one coefficient of a nontrivial tail orbit by v, or delete it
    count = 0
    for label, el, m in _msym_elements(3):
        n = el.rank
        for key, c in el.terms.items():
            if len(set(pad(key, n)[m:])) < 2:
                continue
            scaled = dict(el.terms)
            scaled[key] = c.shift(v_exp=1)
            deleted = dict(el.terms)
            del deleted[key]
            for terms in (scaled, deleted):
                with pytest.raises(MSymmetryViolation, match="not %d-symmetric" % m):
                    msym_expand(ModuleElement(n, terms), m)
                count += 1
    assert count >= 100


def test_msym_expand_needs_the_ascent_partner_of_every_descent():
    # delete the ascent partner of a descent key: it is never a
    # representative, so the walk of its orbit finds it missing
    count = 0
    for label, el, least in _msym_elements(3):
        n = el.rank
        for m in range(least, n):
            for i in range(m + 1, n):
                for key in el.terms:
                    p = pad(key, n)
                    if p[i - 1] <= p[i]:
                        continue
                    partner = p[: i - 1] + (p[i], p[i - 1]) + p[i + 1 :]
                    terms = {k: c for k, c in el.terms.items() if pad(k, n) != partner}
                    with pytest.raises(MSymmetryViolation, match="not %d-symmetric" % m):
                        msym_expand(ModuleElement(n, terms), m)
                    count += 1
    assert count >= 1000


def test_msym_expand_needs_every_key_on_a_walked_orbit():
    # a key whose representative is not a term is reached by no orbit walk:
    # (a) a stray key planted on an absent orbit, (b) a deleted representative
    count = strays = 0
    for label, el, least in _msym_elements(3):
        n = el.rank
        d = sum(next(iter(el.terms)))
        for m in range(least, n):
            reps = msym_expand(el, m).terms
            stray = next((kappa for kappa in compositions_of(d, n)
                          if _rep(kappa, m, n) not in (kappa, *el.terms)), None)
            cases = [] if stray is None else [({**el.terms, stray: ONE}, stray)]
            for tau in reps:
                if len(set(pad(tau, n)[m:])) > 1:
                    cases.append(({k: c for k, c in el.terms.items() if k != tau}, None))
            for terms, key in cases:
                with pytest.raises(MSymmetryViolation,
                                   match="lies on no orbit .*; not %d-symmetric" % m) as exc:
                    msym_expand(ModuleElement(n, terms), m)
                assert key is None or repr(key) in str(exc.value)
                count += 1
                strays += key is not None
    assert strays >= 300 and count >= 2000


def _memo_held(el, m, reps):
    """(tau, kappa, e) for each key kappa of el holding the shift memo's copy of p_tau v^e."""
    n = el.rank
    return [(tau, kappa, e) for tau, p in reps.items() for kappa, e in orbit(tau, m, n)
            if e and el.terms[kappa] is memo_shift(p, e)]


def test_msym_expand_accepts_the_shift_memos_copy_by_identity_and_nothing_else():
    counts = dict.fromkeys(("fresh", "swapped", "foreign", "wrong"), 0)
    for label, el, m in _msym_elements(3):
        n = el.rank
        size = len(_SHIFTS)
        reps = msym_expand(el, m).terms
        assert len(_SHIFTS) == size, label
        held = _memo_held(el, m, reps)
        for tau, kappa, e in held:
            c = el.terms[kappa]
            # a fresh object equal in value passes, and the peek inserts nothing
            terms = dict(el.terms)
            terms[kappa] = CoeffPoly(dict(c.terms))
            assert msym_expand(ModuleElement(n, terms), m).terms == reps, (label, kappa)
            assert len(_SHIFTS) == size, (label, kappa)
            counts["fresh"] += 1
            bad = []
            # the object of a key at another offset of the same orbit
            bad += [("swapped", kappa2) for t, kappa2, e2 in held if t == tau and e2 != e][:1]
            # another representative's memo copy at the same offset, a different value
            bad += [("foreign", tau2) for tau2, p2 in reps.items()
                    if tau2 != tau and memo_shift(p2, e) not in (None, c)][:1]
            bad.append(("wrong", None))
            for case, other in bad:
                terms = dict(el.terms)
                if case == "swapped":
                    terms[kappa], terms[other] = terms[other], terms[kappa]
                elif case == "foreign":
                    terms[kappa] = memo_shift(reps[other], e)
                else:
                    terms[kappa] = c.shift(v_exp=1)
                with pytest.raises(MSymmetryViolation, match="not %d-symmetric" % m):
                    msym_expand(ModuleElement(n, terms), m)
                counts[case] += 1
    assert min(counts.values()) >= 1000, counts


def test_msym_expand_of_a_fresh_element_inserts_nothing_into_the_shift_memo():
    for label, el, m in _msym_elements(3):
        fresh = ModuleElement(el.rank, {k: CoeffPoly(dict(c.terms)) for k, c in el.terms.items()})
        size = len(_SHIFTS)
        assert msym_expand(fresh, m) == msym_expand(el, m), label
        assert not _memo_held(fresh, m, msym_expand(fresh, m).terms), label
        assert len(_SHIFTS) == size, label


def _rep(kappa, m, n):
    """The representative of kappa's orbit: its padded tail past m sorted down."""
    p = pad(kappa, n)
    return canonicalize(p[:m] + tuple(sorted(p[m:], reverse=True)))


def test_pair_needs_divisible_coefficients():
    # b((1, 1)) = (1 - t)(1 - t^2) does not divide 1
    x = ModuleElement(3, {(1, 1): ONE}, 0)
    with pytest.raises(NonExactDivision):
        quotients(x)
    # a b = 1 coefficient (empty tail) is its own quotient; with the intern
    # table empty, Q is the one object of its value
    qtkostka.clear_caches()
    y = ModuleElement(3, {(1,): Q}, 1)
    assert quotients(y).terms[(1,)] is Q


def test_pair_is_a_plain_sum_over_the_quotients():
    x = ModuleElement(3, {(1,): T, (2, 1): ONE, (2,): Q}, 1)
    y = ModuleElement(3, {(1,): Q, (2, 1): CoeffPoly.b_partition((1,)) * Q}, 1)
    assert pair(x, quotients(y)) == T * Q + Q
    with pytest.raises(ValueError, match="different m"):
        pair(x, quotients(y.expansion(2)))


def _count_divisions(monkeypatch):
    calls = []
    real = CoeffPoly.exact_div

    def counted(self, d):
        calls.append(d)
        return real(self, d)

    monkeypatch.setattr(CoeffPoly, "exact_div", counted)
    return calls


def test_warm_pairings_divide_nothing_again(monkeypatch):
    qtkostka.clear_caches()
    lam, mu = (2, 1, 1), (2, 1, 1)
    want = kostka(lam, mu).value
    marks = [(d, marked_kostka(lam, d)) for d in all_markings(mu)]
    calls = _count_divisions(monkeypatch)
    assert kostka(lam, mu).value == want
    assert [(d, marked_kostka(lam, d)) for d in all_markings(mu)] == marks
    assert kostka_via_schur(lam, mu) == want
    assert calls == []
    # a cold run does divide, once per coefficient of each expansion
    qtkostka.clear_caches()
    assert kostka(lam, mu).value == want
    assert calls


def _plant_remainder(lam, mu):
    """Add 1 to a coefficient of the memoized E~_mu that kostka(lam, mu) divides by b != 1."""
    m = max(partition_length(lam), len(mu))
    n = max(m + sum(lam) + 1, 2)
    form = word_orbit(e_word(mu), n)
    assert form.m == m  # so the pairing reads form itself
    tau = next(t for t in sorted(form.terms) if CoeffPoly.b_partition(t[m:]) != ONE)
    form.terms[tau] = form.terms[tau] + ONE


def test_planted_remainder_in_a_memoized_expansion_raises():
    qtkostka.clear_caches()
    _plant_remainder((1, 1), (2,))
    with pytest.raises(NonExactDivision):
        kostka((1, 1), (2,))
    qtkostka.clear_caches()
    assert kostka((1, 1), (2,)).value == Q


def test_planted_remainder_is_an_internal_scan_record():
    from click.testing import CliRunner

    from qtkostka import cli

    qtkostka.clear_caches()
    _plant_remainder((1, 1), (2,))
    r = CliRunner().invoke(cli.main, ["scan", "--max-weight", "2", "--no-marked"])
    qtkostka.clear_caches()
    assert r.exit_code == 3
    records = [json.loads(line) for line in r.output.splitlines() if line.startswith("{")]
    # every lambda paired against the planted expansion is recorded, and nothing else
    assert records == [
        {"check": "internal", "lambda": lam, "mu": "2", "value": None,
         "detail": "NonExactDivision"}
        for lam in ("0,2", "1,1", "2")
    ]


def test_pair_geometric():
    # two full elements (m = rank): the sum of the squared coefficients
    a = msym_basis((1,), 0, 3)
    assert pair(a, a) == ONE + T + T * T


def test_weight2_table():
    assert kostka((2,), (2,)).value == ONE
    assert kostka((2,), (1, 1)).value == T
    assert kostka((1, 1), (2,)).value == Q
    assert kostka((1, 1), (1, 1)).value == ONE


def test_reference_value_31_22():
    res = kostka((3, 1), (2, 2))
    assert res.value == T + T * Q + T * T * Q
    assert res.is_polynomial_in_v and res.is_nonneg


def test_zero_on_weight_mismatch():
    assert kostka((2,), (1,)).value == ZERO
    assert kostka((), ()).value == ONE


def test_result_metadata():
    res = kostka((2,), (1, 1))
    assert res.lam == (2,) and res.mu == (1, 1)
    assert res.m >= 2 and res.rank >= res.m + 2
    assert res.is_polynomial_in_v and res.is_nonneg


def test_q0_reproduces_kl(monkeypatch):
    # the KL coefficients are read from the orbit form's terms, never through
    # the element below its rank
    real = ModuleElement.element.fget

    def refuse(self):
        if self.m < self.rank:
            raise AssertionError("element of %r built" % ((self.rank, self.m, self.terms),))
        return real(self)

    qtkostka.clear_caches()
    monkeypatch.setattr(ModuleElement, "element", property(refuse))
    assert kl_element((2, 1), 4).m < 4
    for lam in [(2,), (1, 1), (0, 1), (2, 1)]:
        assert kostka_q0_check(lam), lam
    assert kostka_q0_check((3,), max_len=3)


def test_q0_check_catches_a_wrong_value(monkeypatch):
    module = sys.modules["qtkostka.kostka"]
    real = module.kostka

    def wrong(lam, mu):
        res = real(lam, mu)
        if mu == (1, 1):
            return res._replace(value=res.value + ONE)
        return res

    assert kostka_q0_check((2,))
    monkeypatch.setattr(module, "kostka", wrong)
    assert not kostka_q0_check((2,))


def test_charge_oracle():
    assert charge_oracle((1,), (1,)) == ONE
    assert charge_oracle((2,), (1, 1)) == T
    assert charge_oracle((1, 1), (1, 1)) == ONE
    assert charge_oracle((2, 1), (1, 1, 1)) == T + T * T
    assert charge_oracle((3,), (1, 1, 1)) == T * T * T
    assert charge_oracle((2, 1), (2, 1)) == ONE  # K at lam == mu is always 1
    assert charge_oracle((1, 1), (2,)) == ZERO


def test_q0_matches_charge():
    for lam, mu in [
        ((2,), (1, 1)),
        ((2, 1), (1, 1, 1)),
        ((2, 1), (2, 1)),
        ((3,), (2, 1)),
    ]:
        assert kostka(lam, mu).value.specialize_q0() == charge_oracle(lam, mu)


def test_schur_route():
    f = schur_z((1, 1), 3)
    assert f.coefficient((1, 1)) == ONE
    assert f.coefficient((1, 0, 1)) == ONE
    assert f.coefficient((2,)) == ZERO
    for lam in [(2,), (1, 1)]:
        for mu in [(2,), (1, 1)]:
            assert kostka_via_schur(lam, mu) == kostka(lam, mu).value, (lam, mu)
    assert kostka_via_schur((2, 1), (2, 1)) == kostka((2, 1), (2, 1)).value


def test_marked_values_22():
    # weight-4 reference table: shape (2,2) against lambda (3,1)
    vals = {}
    for d in all_markings((2, 2)):
        v = marked_kostka((3, 1), d)
        if not v.is_zero():
            vals[format_marked(d)] = v
    assert vals == {
        "2,2|": T,
        "2,2|1.2": T * T,
        "2,2|2.2": T,
    }
    assert marked_decomposition_check((3, 1), (2, 2))


def test_marked_table_221():
    vals = {}
    for d in all_markings((2, 2, 1)):
        v = marked_kostka((3, 1, 1), d)
        if not v.is_zero():
            vals[format_marked(d)] = v
    assert vals == {
        "2,2,1|": T,
        "2,2,1|1.2": T * T + T * T * T,
        "2,2,1|2.2": T + T * T,
        "2,2,1|1.2,2.2": T * T * T,
    }


def test_marked_decomposition():
    for lam, mu in [((2,), (1, 1)), ((1, 1), (1, 1)), ((2, 1), (1, 1, 1))]:
        assert marked_decomposition_check(lam, mu), (lam, mu)


def test_marked_weight_mismatch():
    with pytest.raises(ValueError):
        marked_kostka((2,), MarkedDiagram((1,), frozenset()))


def test_psi_e_polynomial():
    for d in range(4):
        for mu in compositions_of(d, 3):
            assert psi_e_polynomial(mu), mu


def test_scan_smoke(tmp_path):
    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "values.csv"
    rep = scan(2, report_path=str(report_path), csv_path=str(csv_path))
    assert rep["format"] == 1
    assert rep["max_weight"] == 2
    assert rep["pairs"] == 14
    assert rep["violations"] == []
    assert rep["min_v_exponent_observed"] == 0
    assert set(rep["timings"]) == {"kostka", "conjectures", "mpart", "q0_kl", "total"}
    on_disk = json.loads(report_path.read_text())
    assert on_disk == json.loads(json.dumps(rep))
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "lambda,mu,kostka"
    assert len(lines) == 1 + 14


def test_scan_cache_resume(tmp_path):
    cache = tmp_path / "cache"
    first = scan(2, cache_dir=str(cache))
    assert any(cache.iterdir())
    second = scan(2, cache_dir=str(cache))
    assert first["pairs"] == second["pairs"] == 14
    assert second["violations"] == []


def _scan_outputs(tmp_path, name, max_weight=3, **kwargs):
    """A scan into the cache tmp_path/name: report without timings, CSV bytes, cache entries."""
    cache = tmp_path / name
    csv_path = tmp_path / (name + ".csv")
    rep = scan(max_weight, cache_dir=str(cache), csv_path=str(csv_path), **kwargs)
    rep.pop("timings")
    return rep, csv_path.read_bytes(), _cache_entries(cache)


def _cache_entries(cache):
    """Every (kind, key, payload) stored as an entry file under cache, sorted."""
    entries = []
    for dirpath, _, files in os.walk(cache):
        for name in files:
            if not name.endswith(".json"):
                continue
            with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                data = json.load(fh)
            entries.append((data["kind"], data["key"], data["payload"]))
    return sorted(entries, key=lambda e: json.dumps(e, sort_keys=True))


def test_scan_jobs_agree(tmp_path):
    serial = _scan_outputs(tmp_path, "serial", jobs=1)
    parallel = _scan_outputs(tmp_path, "parallel", jobs=2)
    assert serial[0]["violations"] == []
    assert len(serial[2]) > serial[0]["pairs"]
    assert parallel == serial


def test_scan_fully_cached_agrees_across_jobs(tmp_path):
    # a warm scan with jobs > 1 reads every value in the workers, leaves the
    # entries as they were and reports what the cold serial scan did
    cache = tmp_path / "cache"
    first = scan(2, cache_dir=str(cache))
    before = _cache_entries(cache)
    again = scan(2, cache_dir=str(cache), jobs=2)
    first.pop("timings")
    again.pop("timings")
    assert again == first
    assert _cache_entries(cache) == before


def test_scan_writes_one_flat_directory_per_kind(tmp_path, monkeypatch):
    root = str(tmp_path / "cache")
    got, put = [], []

    def spy(log, fn):
        def wrapper(root, kind, key, *rest):
            log.append(cache_path(root, kind, key))
            return fn(root, kind, key, *rest)
        return wrapper

    # cached() must reach cache_get/cache_put through these module globals:
    # the benchmark's tracer rebinds them to count reads and writes
    cache_module = sys.modules["qtkostka.cache"]
    monkeypatch.setattr(cache_module, "cache_get", spy(got, cache_module.cache_get))
    monkeypatch.setattr(cache_module, "cache_put", spy(put, cache_module.cache_put))
    rep = scan(2, cache_dir=root)
    assert rep["violations"] == []

    assert sorted(os.listdir(root)) == ["kostka", "marked"]
    files = set()
    for kind in ("kostka", "marked"):
        for name in os.listdir(os.path.join(root, kind)):
            path = os.path.join(root, kind, name)
            assert os.path.isfile(path) and name.endswith(".json"), path
            files.add(path)
    assert {cache_path(root, kind, key) for kind, key, _ in _cache_entries(root)} == files

    domain = [compositions_of(d, 2) for d in range(3)]
    values = sum(len(mus) ** 2 for mus in domain)
    marked = sum(len(mus) * len(list(all_markings(mu))) for mus in domain for mu in mus)
    assert values == rep["pairs"] == 14
    assert len(files) == values + marked
    assert sorted(got) == sorted(put) == sorted(files)


# The child kills itself between a temp file's write and its rename.
_CRASHING_SCAN = """
import os, signal, sys
from qtkostka import scan

real_replace = os.replace
calls = []

def replace(src, dst):
    calls.append(dst)
    if len(calls) == 5:
        os.kill(os.getpid(), signal.SIGKILL)
    return real_replace(src, dst)

os.replace = replace
scan(2, cache_dir=sys.argv[1], csv_path=sys.argv[2])
"""


def test_scan_killed_mid_write_resumes_to_the_same_outputs(tmp_path, monkeypatch):
    root = tmp_path / "killed"
    csv_path = tmp_path / "killed.csv"
    src = os.path.dirname(os.path.dirname(qtkostka.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _CRASHING_SCAN, str(root), str(csv_path)],
                          env=env, capture_output=True, check=False, timeout=300)
    assert proc.returncode == -signal.SIGKILL, proc.stderr

    # four entries were renamed into place; the fifth was left as a temp file
    assert len(_cache_entries(root)) == 4
    stray = [os.path.join(dirpath, name) for dirpath, _, names in os.walk(root)
             for name in names if name.endswith(".tmp")]
    assert len(stray) == 1
    with open(stray[0], encoding="utf-8") as fh:
        lost = json.load(fh)
    cache_module = sys.modules["qtkostka.cache"]
    assert cache_module.cache_get(str(root), lost["kind"], lost["key"]) is None
    assert not csv_path.exists()

    written = []
    real_put = cache_module.cache_put

    def counting_put(*args):
        ok = real_put(*args)
        written.append(ok)
        return ok

    monkeypatch.setattr(cache_module, "cache_put", counting_put)
    resumed = _scan_outputs(tmp_path, "killed", max_weight=2)
    monkeypatch.undo()
    fresh = _scan_outputs(tmp_path, "fresh", max_weight=2)
    assert resumed == fresh
    # the resumed scan computed only what the killed one had not stored
    assert written == [True] * (len(fresh[2]) - 4)
    # the temp file stays where it was and is never taken for an entry
    assert os.path.exists(stray[0])
    assert cache_module.cache_get(str(root), lost["kind"], lost["key"]) == lost["payload"]


def _fail_one_pair(monkeypatch, pair):
    """Make kostka raise ConsistencyError on one (lambda, mu) seen by scan."""
    module = sys.modules["qtkostka.kostka"]
    real = module.kostka

    def flaky(lam, mu):
        if (lam, mu) == pair:
            raise ConsistencyError("injected failure")
        return real(lam, mu)

    monkeypatch.setattr(module, "kostka", flaky)


def test_scan_records_an_internal_failure_and_finishes(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    _fail_one_pair(monkeypatch, ((1, 1), (2,)))
    module = sys.modules["qtkostka.kostka"]
    real_marked = module.marked_kostka

    def flaky_marked(lam, d):
        if lam == (2,) and d.shape == (1, 1) and not d.marked:
            raise NonExactDivision
        return real_marked(lam, d)

    monkeypatch.setattr(module, "marked_kostka", flaky_marked)
    rep = scan(2, cache_dir=str(cache))
    assert rep["violations"] == [
        {"check": "internal", "lambda": "1,1", "mu": "2", "value": None,
         "detail": "ConsistencyError: injected failure"},
        {"check": "internal", "lambda": "2", "mu": "1,1", "value": None,
         "detail": "NonExactDivision", "marking": "1,1|"},
    ]
    assert rep["pairs"] == 13
    # the failed value is not cached, so a rerun without the fault computes it
    assert not os.path.exists(cache_path(str(cache), "kostka", {"lambda": "1,1", "mu": "2"}))
    monkeypatch.undo()
    again = scan(2, cache_dir=str(cache))
    assert again["violations"] == [] and again["pairs"] == 14


_DIFFERS = "sum over markings differs"
_MPART = "expected v*K at i=1"
_Q0 = "q=0 disagrees with the KL coefficient"


_PLANTED = [
    # K_{11,2} = q: every check that reads it fires
    ("kostka", {"lambda": "1,1", "mu": "2"}, -V, [
        {"check": "kostka_positivity", "lambda": "1,1", "mu": "2", "value": (-V).to_json()},
        {"check": "marked_decomposition", "lambda": "1,1", "mu": "2", "value": Q.to_json(),
         "detail": _DIFFERS},
        {"check": "mpart", "lambda": "1,1", "mu": "2", "value": (Q * V).to_json(),
         "detail": _MPART},
        {"check": "q0_kl", "lambda": "1,1", "mu": "2", "value": (-V).to_json(), "detail": _Q0},
    ]),
    ("marked", {"lambda": "2", "marked": "1,1|"}, -V, [
        {"check": "marked_decomposition", "lambda": "2", "mu": "1,1", "value": (-V).to_json(),
         "detail": _DIFFERS},
        {"check": "marked_positivity", "lambda": "2", "mu": "1,1", "value": (-V).to_json(),
         "marking": "1,1|"},
    ]),
    # positive but wrong: K_{2,2} = 1
    ("kostka", {"lambda": "2", "mu": "2"}, Q + V * V * V, [
        {"check": "marked_decomposition", "lambda": "2", "mu": "2", "value": ONE.to_json(),
         "detail": _DIFFERS},
        {"check": "mpart", "lambda": "2", "mu": "2", "value": V.to_json(), "detail": _MPART},
        {"check": "q0_kl", "lambda": "2", "mu": "2", "value": (Q + V * V * V).to_json(),
         "detail": _Q0},
    ]),
]


# the checks run in the workers too; the serial cases keep their plain ids
@pytest.mark.parametrize("kind, key, value, want, jobs", [
    pytest.param(*case, jobs, id=name if jobs == 1 else name + "-jobs2")
    for jobs in (1, 2)
    for name, case in zip(["kostka_11_2", "marked_2_11", "kostka_2_2"], _PLANTED)
])
def test_scan_checks_report_a_planted_cache_entry(tmp_path, kind, key, value, want, jobs):
    root = str(tmp_path / "cache")
    assert cache_put(root, kind, key, {"value": value.to_json()})
    rep = scan(2, cache_dir=root, jobs=jobs)
    assert rep["violations"] == want
    assert rep["pairs"] == 14


def test_scan_lambda_returns_only_the_k_row_records_and_seconds():
    # what a worker sends back: no marked value and no KL element
    lam = (2, 1)
    domain = {d: compositions_of(d, 3) for d in range(4)}
    result = _scan_lambda(lam, domain, marked=True, max_len=3, cache_dir=None)
    assert len(result) == 3
    row, records, seconds = result
    assert row == {mu: kostka(lam, mu).value for mu in domain[3]}
    assert records == []
    assert set(seconds) == {"kostka", "conjectures", "mpart", "q0_kl"}
    assert all(isinstance(secs, float) and secs >= 0 for secs in seconds.values())
    assert b"KLElement" not in pickle.dumps(result)


def test_scan_reports_a_psi_e_coefficient_outside_z_v_q(monkeypatch):
    module = sys.modules["qtkostka.kostka"]
    real = module.psi_e_polynomial
    monkeypatch.setattr(module, "psi_e_polynomial", lambda mu: mu != (1, 1) and real(mu))
    assert scan(2)["violations"] == [
        {"check": "psi_e_polynomial", "lambda": None, "mu": "1,1", "value": None,
         "detail": "coefficient outside Z[v,q]"},
    ]


def test_import_loads_no_process_pool_machinery():
    # only scan(..., jobs > 1) needs them, so a plain import must not pay for them
    src = os.path.dirname(os.path.dirname(qtkostka.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, qtkostka; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_scan_interrupted_keeps_finished_work(tmp_path):
    cache = tmp_path / "cache"

    class Interrupt(Exception):
        pass

    def stop(msg):
        if "lambdas done" in msg:
            raise Interrupt(msg)

    with pytest.raises(Interrupt):
        scan(2, cache_dir=str(cache), progress=stop)
    # the first lambda is the empty composition; all its values are on disk
    kept = {(kind, json.dumps(key, sort_keys=True)) for kind, key, _ in _cache_entries(cache)}
    want = {("kostka", json.dumps({"lambda": "", "mu": ""}, sort_keys=True))}
    want |= {
        ("marked", json.dumps({"lambda": "", "marked": format_marked(d)}, sort_keys=True))
        for d in all_markings(())
    }
    assert kept == want

    resumed_csv = tmp_path / "resumed.csv"
    resumed = scan(2, cache_dir=str(cache), csv_path=str(resumed_csv))
    whole_csv = tmp_path / "whole.csv"
    whole = scan(2, csv_path=str(whole_csv))
    resumed.pop("timings")
    whole.pop("timings")
    assert resumed == whole
    assert resumed_csv.read_bytes() == whole_csv.read_bytes()


def _memo_sizes():
    """Size of every module-level memo in qtkostka.*, by qualified name."""
    sizes = {}
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("qtkostka."):
            continue
        for attr, value in vars(mod).items():
            if re.fullmatch(r"_\w+_(CACHE|MEMO)", attr) and isinstance(value, dict):
                sizes["%s.%s" % (modname, attr)] = len(value)
            elif hasattr(value, "cache_info"):
                sizes["%s.%s" % (modname, attr)] = value.cache_info().currsize
    return sizes


def test_clear_caches_empties_every_memo():
    kostka((2, 1), (1, 2))
    scan(2)
    before = _memo_sizes()
    assert sum(before.values()) > 0
    qtkostka.clear_caches()
    after = _memo_sizes()
    assert set(after) == set(before)
    assert {name: size for name, size in after.items() if size} == {}


def test_scan_length_bound():
    rep = scan(2, max_len=1, marked=False)
    # only (), (1) and (2) fit in one slot
    assert rep["pairs"] == 3
    assert rep["violations"] == []


def test_kostka_result_is_read_only():
    res = kostka((2,), (1, 1))
    with pytest.raises(AttributeError):
        res.value = ONE
    # _replace is the modified copy
    assert res._replace(value=ONE).value == ONE != res.value
