"""Command-line front end.

Exit codes: 0 success, 1 a conjecture violation was found (scan/selftest),
2 usage or parse error, 3 an internal consistency certificate failed.
"""

import functools
import json
import os
import sys
import time

import click

from .cache import cached
from .coeffs import CoeffPoly, ConsistencyError, NonExactDivision, ONE, V
from .compositions import (
    all_markings,
    compositions_of,
    default_rank,
    format_composition,
    format_marked,
    marking_stats,
    parse_composition,
    weight,
)
from .kl import kl_element
from .kostka import cached_value, charge_oracle, kostka, kostka_q0_check, kostka_via_schur
from .kostka import scan as run_scan
from .macdonald import duality_check, e_monomial, e_tilde, marked_sum_check, symmetric_j
from .parabolic import ModuleElement
from .polyrep import from_module

_INTERNAL = (ConsistencyError, NonExactDivision)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except click.ClickException:
            raise
        except ValueError as exc:
            raise click.UsageError(str(exc))
        except _INTERNAL as exc:
            click.echo("consistency failure: %s" % exc, err=True)
            sys.exit(3)

    return wrapper


def _env_cache(explicit=None):
    # click refuses a --cache that names a file; $KOSTKA_CACHE is checked here
    path = explicit or os.environ.get("KOSTKA_CACHE") or None
    if path is not None and os.path.exists(path) and not os.path.isdir(path):
        raise click.UsageError("KOSTKA_CACHE=%s is not a directory" % path)
    return path


def _emit(obj, fmt):
    if fmt == "json":
        click.echo(json.dumps(obj.to_json(), sort_keys=True, separators=(",", ":")))
    else:
        click.echo(obj.pretty())


@click.group()
def main():
    """Composition Kostka functions over Z[v,q]: compute, pair, scan."""


@main.command("compute-e")
@click.option("--mu", "mu_text", required=True,
              help="composition, comma separated; empty string for the unit")
@click.option("--rank", type=int, default=None,
              help="ambient rank n (default: length + weight + 1)")
@click.option("--basis", type=click.Choice(["standard", "monomial"]), default="standard",
              help="parabolic-module basis M^tau or polynomial basis z^tau")
@click.option("--format", "fmt", type=click.Choice(["json", "pretty"]), default="pretty")
@_guarded
def compute_e(mu_text, rank, basis, fmt):
    """Print the Macdonald element E~_mu."""
    mu = parse_composition(mu_text)
    n = rank if rank is not None else default_rank(mu)
    key = {"mu": format_composition(mu), "rank": n}
    el = cached(_env_cache(), "e_tilde", key, "element", ModuleElement.from_json,
                lambda: e_tilde(mu, n).element)
    _emit(from_module(el) if basis == "monomial" else el, fmt)


@main.command("compute-kl")
@click.option("--lambda", "lam_text", required=True, help="composition, comma separated")
@click.option("--rank", type=int, default=None,
              help="ambient rank n (default: length + weight + 1)")
@click.option("--format", "fmt", type=click.Choice(["json", "pretty"]), default="pretty")
@_guarded
def compute_kl(lam_text, rank, fmt):
    """Print the Kazhdan-Lusztig element over lambda."""
    lam = parse_composition(lam_text)
    n = rank if rank is not None else default_rank(lam)
    key = {"lambda": format_composition(lam), "rank": n}
    el = cached(_env_cache(), "kl", key, "element", ModuleElement.from_json,
                lambda: kl_element(lam, n).element)
    _emit(el, fmt)


@main.command("kostka")
@click.option("--lambda", "lam_text", required=True)
@click.option("--mu", "mu_text", required=True)
@click.option("--marked", "with_marked", is_flag=True,
              help="also print the marked refinement table")
@click.option("--format", "fmt", type=click.Choice(["json", "pretty"]), default="pretty")
@_guarded
def kostka_cmd(lam_text, mu_text, with_marked, fmt):
    """Print K_{lambda,mu}(q,t), optionally refined over markings of mu."""
    lam = parse_composition(lam_text)
    mu = parse_composition(mu_text)
    cdir = _env_cache()
    value = cached_value(lam, mu, cache_dir=cdir)
    rows = []
    if with_marked:
        for d in all_markings(mu):
            a_stat, l_stat = marking_stats(d)
            rows.append((format_marked(d), a_stat, l_stat, cached_value(lam, mu, d, cdir)))
    if fmt == "json":
        doc = {"format": 1, "lambda": format_composition(lam), "mu": format_composition(mu),
               "value": value.to_json()}
        if with_marked:
            doc["marked"] = [
                {"marking": marks, "A": a, "L": l, "value": mval.to_json()}
                for marks, a, l, mval in rows
            ]
        click.echo(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        return
    click.echo(value.pretty())
    if with_marked:
        width = max(len(r[0]) for r in rows)
        for marks, a, l, mval in rows:
            click.echo("%-*s  A=%d  L=%d  %s" % (width, marks, a, l, mval.pretty()))


@main.command("scan")
@click.option("--max-weight", type=int, required=True)
@click.option("--max-len", type=int, default=None,
              help="cap on composition length (default: max-weight)")
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--cache", "cache_dir", type=click.Path(file_okay=False), default=None,
              help="result cache directory (default: $KOSTKA_CACHE)")
@click.option("--report", "report_path", type=click.Path(dir_okay=False), default=None,
              help="write the JSON scan report here")
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None,
              help="write the pair table as CSV here")
@click.option("--marked/--no-marked", "with_marked", default=True,
              help="include the marked refinement checks")
@_guarded
def scan_cmd(max_weight, max_len, jobs, cache_dir, report_path, csv_path, with_marked):
    """Scan all equal-weight pairs up to a weight bound for conjecture violations."""
    if max_weight < 0:
        raise click.UsageError("--max-weight must be nonnegative")
    if max_len is not None and max_len < 0:
        raise click.UsageError("--max-len must be nonnegative")
    report = run_scan(
        max_weight,
        max_len=max_len,
        marked=with_marked,
        jobs=max(jobs, 1),
        cache_dir=_env_cache(cache_dir),
        report_path=report_path,
        csv_path=csv_path,
        progress=lambda msg: click.echo(msg, err=True),
    )
    click.echo(
        "pairs=%d violations=%d min_v_exponent=%s total=%ss"
        % (
            report["pairs"],
            len(report["violations"]),
            report["min_v_exponent_observed"],
            report["timings"]["total"],
        )
    )
    for violation in report["violations"]:
        click.echo(json.dumps(violation, sort_keys=True))
    if any(v["check"] == "internal" for v in report["violations"]):
        sys.exit(3)
    if report["violations"]:
        sys.exit(1)


def _selftest_checks(deep):
    t = CoeffPoly.t_power
    q = CoeffPoly.q_power

    def e_example():
        expected = ModuleElement(2, {(0, 1): ONE - q(1) * t(2)})
        return e_tilde((0, 1), 2).element == expected

    def e_monomial_example():
        f = e_monomial((1,), 2)
        return (
            f.coefficient((1,)) == ONE - q(1) * t(1)
            and f.coefficient((0, 1)) == ONE - t(1)
        )

    def kl_example():
        expected = ModuleElement(2, {(1,): ONE, (0, 1): V})
        return kl_element((1,), 2).element == expected

    def kostka_example():
        return kostka((3, 1), (2, 2)).value == t(1) + t(1) * q(1) + t(2) * q(1)

    def duality():
        return all(
            duality_check(lam, default_rank(lam))
            for d in range(4)
            for lam in _comps(d)
        )

    def marked_sums():
        return all(
            marked_sum_check(lam, default_rank(lam))
            for d in range(4)
            for lam in _comps(d)
        )

    def symmetric():
        for mu in [(), (1,), (2,), (1, 1), (2, 1)]:
            symmetric_j(mu, default_rank(mu))
        return True

    def q0():
        return all(kostka_q0_check(lam) for d in range(4) for lam in _comps(d))

    def charge():
        pairs = [(lam, mu) for lam in _parts(3) for mu in _parts(3) if weight(lam) == weight(mu)]
        return all(
            kostka(lam, mu).value.specialize_q0() == charge_oracle(lam, mu)
            and kostka(lam, mu).value == kostka_via_schur(lam, mu)
            for lam, mu in pairs
        )

    def quick_scan():
        return not run_scan(3)["violations"]

    checks = [
        ("macdonald element example", e_example),
        ("macdonald monomial example", e_monomial_example),
        ("kl element example", kl_example),
        ("kostka reference value", kostka_example),
        ("duality factor, weight <= 3", duality),
        ("marked decomposition of E~, weight <= 3", marked_sums),
        ("symmetric J certificates", symmetric),
        ("q=0 agrees with KL, weight <= 3", q0),
        ("charge and schur routes, weight <= 3", charge),
        ("scan weight 3", quick_scan),
    ]
    if deep:
        checks.append(("scan weight 5 (length <= 3)", lambda: not run_scan(5, max_len=3)["violations"]))
    return checks


def _comps(d):
    return compositions_of(d, max(d, 1))


def _parts(bound):
    out = []
    for d in range(bound + 1):
        out.extend(lam for lam in _comps(d) if all(
            lam[k] >= lam[k + 1] for k in range(len(lam) - 1)))
    return out


@main.command("selftest")
@click.option("--deep", is_flag=True, help="also run a weight-5 scan (slow)")
@_guarded
def selftest(deep):
    """Run the built-in identity suite; exit 1 on any failure."""
    failures = 0
    for name, fn in _selftest_checks(deep):
        t0 = time.perf_counter()
        ok = fn()
        dt = time.perf_counter() - t0
        click.echo("%-42s %s  (%.1fs)" % (name, "ok" if ok else "FAIL", dt))
        if not ok:
            failures += 1
    if failures:
        click.echo("%d check(s) failed" % failures, err=True)
        sys.exit(1)
    click.echo("all checks passed")


if __name__ == "__main__":
    main()
