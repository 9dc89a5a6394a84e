"""Tests for the command-line front end."""

import json
import sys

import pytest
from click.testing import CliRunner

import qtkostka.cli as cli
from qtkostka.cache import FORMAT, cache_get, cache_path
from qtkostka.coeffs import CoeffPoly, ConsistencyError, ONE


@pytest.fixture
def runner():
    return CliRunner()


def test_compute_e_pretty(runner):
    r = runner.invoke(cli.main, ["compute-e", "--mu", "0,1", "--rank", "2"])
    assert r.exit_code == 0
    assert r.output.strip() == "(1 - t^2*q)*M^{(0,1)}"
    r = runner.invoke(cli.main, ["compute-e", "--mu", "1", "--rank", "2"])
    # odd v exponents anywhere force the whole element into v form
    assert r.output.strip() == "(1 - v^2*q)*M^{(1)} + (v*q - v^3*q)*M^{(0,1)}"


def test_compute_e_unit(runner):
    r = runner.invoke(cli.main, ["compute-e", "--mu", ""])
    assert r.exit_code == 0
    assert r.output.strip() == "1"


def test_compute_e_monomial_basis(runner):
    r = runner.invoke(
        cli.main, ["compute-e", "--mu", "1", "--rank", "2", "--basis", "monomial"]
    )
    assert r.output.strip() == "(1 - t*q)*z_1 + (1 - t)*z_2"


def test_compute_e_json_deterministic(runner):
    args = ["compute-e", "--mu", "2,1", "--rank", "4", "--format", "json"]
    a = runner.invoke(cli.main, args)
    b = runner.invoke(cli.main, args)
    assert a.exit_code == 0
    assert a.output == b.output
    doc = json.loads(a.output)
    assert doc["rank"] == 4


def test_compute_kl_pretty(runner):
    r = runner.invoke(cli.main, ["compute-kl", "--lambda", "1", "--rank", "3"])
    assert r.exit_code == 0
    assert r.output.strip() == "M^{(1)} + v*M^{(0,1)} + v^2*M^{(0,0,1)}"


def test_kostka_pretty(runner):
    r = runner.invoke(cli.main, ["kostka", "--lambda", "3,1", "--mu", "2,2"])
    assert r.exit_code == 0
    assert r.output.strip() == "t + t*q + t^2*q"


def test_kostka_marked_table(runner):
    r = runner.invoke(cli.main, ["kostka", "--lambda", "3,1", "--mu", "2,2", "--marked"])
    assert r.exit_code == 0
    lines = r.output.strip().splitlines()
    assert lines[0] == "t + t*q + t^2*q"
    assert len(lines) == 1 + 16  # 2^4 markings of a 4-box shape
    table = {}
    for line in lines[1:]:
        marks, rest = line.split("  A=", 1)
        a, rest = rest.split("  L=", 1)
        l, value = rest.split("  ", 1)
        table[marks.strip()] = (int(a), int(l), value.strip())
    assert table["2,2|"] == (0, 0, "t")
    assert table["2,2|1.2"] == (1, 2, "t^2")
    assert table["2,2|2.2"] == (1, 1, "t")
    assert table["2,2|1.2,2.2,1.1,2.1"][2] == "0"


def test_kostka_json(runner):
    args = ["kostka", "--lambda", "2", "--mu", "1,1", "--format", "json", "--marked"]
    a = runner.invoke(cli.main, args)
    assert a.exit_code == 0
    doc = json.loads(a.output)
    assert doc["format"] == 1
    assert doc["lambda"] == "2" and doc["mu"] == "1,1"
    assert doc["value"] == [{"c": "1", "q": 0, "v": 2}]
    assert len(doc["marked"]) == 4
    assert a.output == runner.invoke(cli.main, args).output


def test_parse_error_is_exit_2(runner):
    r = runner.invoke(cli.main, ["kostka", "--lambda", "x", "--mu", "1"])
    assert r.exit_code == 2
    r = runner.invoke(cli.main, ["compute-e", "--mu", "1", "--rank", "1"])
    assert r.exit_code == 2
    r = runner.invoke(cli.main, ["scan", "--max-weight", "-1"])
    assert r.exit_code == 2


def test_internal_failure_is_exit_3(runner, monkeypatch):
    def boom(lam, mu):
        raise ConsistencyError("stability certificate failed")

    monkeypatch.setattr(sys.modules["qtkostka.kostka"], "kostka", boom)
    r = runner.invoke(cli.main, ["kostka", "--lambda", "2", "--mu", "1,1"])
    assert r.exit_code == 3


def test_scan_internal_failure_is_exit_3_over_a_violation(runner, monkeypatch):
    # one pair fails a certificate and another reads as a positivity
    # violation: the scan finishes, reports both, and exits 3
    module = sys.modules["qtkostka.kostka"]
    real = module.kostka

    def flaky(lam, mu):
        if (lam, mu) == ((1, 1), (2,)):
            raise ConsistencyError("injected failure")
        result = real(lam, mu)
        if (lam, mu) == ((2,), (2,)):
            return result._replace(value=-result.value)
        return result

    monkeypatch.setattr(module, "kostka", flaky)
    r = runner.invoke(cli.main, ["scan", "--max-weight", "2", "--no-marked"])
    assert r.exit_code == 3
    records = [json.loads(line) for line in r.output.splitlines() if line.startswith("{")]
    assert {v["check"] for v in records} >= {"internal", "kostka_positivity"}
    assert "pairs=13 violations=%d " % len(records) in r.output


def test_cache_entry_bytes_are_the_canonical_encoding(tmp_path):
    # perfbench reads entries back and other checkouts share a cache
    # directory, so the bytes of an entry are pinned
    from qtkostka.cache import cache_get, cache_path, cache_put

    root = str(tmp_path)
    key = {"lambda": "2,1", "mu": "1,2"}
    payload = {"value": [{"c": "-1", "q": 1, "v": 2}]}
    assert cache_put(root, "kostka", key, payload)
    want = {"format": FORMAT, "kind": "kostka", "key": key, "payload": payload}
    with open(cache_path(root, "kostka", key), "rb") as fh:
        assert fh.read() == json.dumps(want, sort_keys=True, separators=(",", ":")).encode()
    assert not cache_put(root, "kostka", key, {"value": []})
    assert cache_get(root, "kostka", key) == payload


_KEY_1_1 = {"lambda": "1", "mu": "1"}


@pytest.mark.parametrize("entry", [
    ["a", "json", "list"],
    {"format": FORMAT, "kind": "kostka", "key": _KEY_1_1, "payload": {"other": []}},
    {"format": FORMAT, "kind": "kostka", "key": _KEY_1_1, "payload": {"value": [["v", 0]]}},
], ids=["list", "no-value", "bad-terms"])
def test_a_malformed_cache_entry_is_a_miss(runner, tmp_path, entry):
    clean = runner.invoke(cli.main, ["scan", "--max-weight", "1", "--csv", str(tmp_path / "a.csv")])
    cache = tmp_path / "cache"
    path = cache_path(str(cache), "kostka", _KEY_1_1)
    (cache / "kostka").mkdir(parents=True)
    planted = json.dumps(entry)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(planted)
    r = runner.invoke(cli.main, ["scan", "--max-weight", "1", "--cache", str(cache),
                                 "--csv", str(tmp_path / "b.csv")])
    assert r.exit_code == 0, r.output
    assert clean.exit_code == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    # the value was recomputed and written over the entry
    assert CoeffPoly.from_json(cache_get(str(cache), "kostka", _KEY_1_1)["value"]) == ONE


def test_cache_round_trip(runner, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("KOSTKA_CACHE", str(cache))
    args = ["kostka", "--lambda", "3,1", "--mu", "2,2", "--marked"]
    first = runner.invoke(cli.main, args)
    assert first.exit_code == 0
    assert (cache / "kostka").is_dir()
    assert (cache / "marked").is_dir()

    # a poisoned library would now be ignored in favor of the cache
    kostka_module = sys.modules["qtkostka.kostka"]
    monkeypatch.setattr(kostka_module, "kostka", None)
    monkeypatch.setattr(kostka_module, "marked_kostka", None)
    second = runner.invoke(cli.main, args)
    assert second.exit_code == 0
    assert second.output == first.output


def test_kostka_command_and_scan_share_cache_entries(runner, tmp_path, monkeypatch):
    from qtkostka import scan
    from qtkostka.cache import cache_path

    cache = tmp_path / "cache"
    monkeypatch.setenv("KOSTKA_CACHE", str(cache))
    r = runner.invoke(cli.main, ["kostka", "--lambda", "2", "--mu", "1,1", "--marked"])
    assert r.exit_code == 0
    stored = {str(path) for path in cache.rglob("*.json")}
    assert len(stored) == 1 + 4

    cache_module = sys.modules["qtkostka.cache"]
    real_put = cache_module.cache_put
    written = []

    def spy(root, kind, key, payload):
        written.append(cache_path(root, kind, key))
        return real_put(root, kind, key, payload)

    monkeypatch.setattr(cache_module, "cache_put", spy)
    scan(2, cache_dir=str(cache))
    # scan(2) computes 14 values and 45 marked values; it finds the 5 the command stored
    assert len(written) == 14 + 45 - 5
    assert not stored & set(written)
    assert {str(path) for path in cache.rglob("*.json")} == stored | set(written)


def test_cache_round_trip_elements(runner, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("KOSTKA_CACHE", str(cache))
    for args, kind in [
        (["compute-e", "--mu", "1", "--rank", "2"], "e_tilde"),
        (["compute-kl", "--lambda", "1", "--rank", "3"], "kl"),
    ]:
        first = runner.invoke(cli.main, args)
        assert first.exit_code == 0
        assert (cache / kind).is_dir()
        second = runner.invoke(cli.main, args)
        assert second.output == first.output


def test_scan_cli(runner, tmp_path):
    report = tmp_path / "report.json"
    r = runner.invoke(cli.main, ["scan", "--max-weight", "2", "--report", str(report)])
    assert r.exit_code == 0
    summary = r.output.strip().splitlines()[-1]
    assert summary.startswith("pairs=14 violations=0 min_v_exponent=0 total=")
    doc = json.loads(report.read_text())
    assert doc["pairs"] == 14 and doc["violations"] == []


def test_scan_rejects_a_negative_max_len(runner):
    # a usage error (exit 2), not a traceback under the violation code 1
    r = runner.invoke(cli.main, ["scan", "--max-weight", "2", "--max-len", "-1"])
    assert r.exit_code == 2
    assert "--max-len must be nonnegative" in r.output
    assert r.exception is None or isinstance(r.exception, SystemExit)


def test_a_cache_path_that_names_a_file_is_a_usage_error(runner, tmp_path, monkeypatch):
    # --cache <file> is refused by click; $KOSTKA_CACHE naming a file is too
    path = tmp_path / "not-a-dir"
    path.write_text("")
    monkeypatch.setenv("KOSTKA_CACHE", str(path))
    for args in (["kostka", "--lambda", "1", "--mu", "1"], ["scan", "--max-weight", "1"]):
        r = runner.invoke(cli.main, args)
        assert r.exit_code == 2, r.output
        assert "KOSTKA_CACHE=%s is not a directory" % path in r.output
        assert r.exception is None or isinstance(r.exception, SystemExit)
    assert path.read_text() == ""


def test_scan_rejects_bad_jobs(runner):
    # jobs are clamped rather than rejected
    r = runner.invoke(cli.main, ["scan", "--max-weight", "0", "--jobs", "0"])
    assert r.exit_code == 0


def test_selftest(runner):
    r = runner.invoke(cli.main, ["selftest"])
    assert r.exit_code == 0, r.output
    lines = r.output.strip().splitlines()
    assert lines[-1] == "all checks passed"
    assert sum(1 for line in lines if "  ok  " in line or line.rstrip().endswith(")")) >= 10
