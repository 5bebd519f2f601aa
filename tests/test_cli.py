import contextlib
import hashlib
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import cycloclass
import pins
from cycloclass import __version__, ktheory
from cycloclass.classnumber import HMINUS_PHI_CEILING
from cycloclass.cli import (SCHEMA_VERSION, TATE_RANK_CEILING, _build_parser,
                            _canonical_key, _code_digest, _parse, run)

TESTS = Path(__file__).resolve().parent

CODE = _code_digest()
#: the cache key of ``hminus --m 39``, whose answer is 2
KEY_39 = _canonical_key(_build_parser().parse_args(["hminus", "--m", "39"]))


@pytest.fixture
def capture(capsys):
    def invoke(argv):
        code = run(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return invoke


class TestBasicCommands:
    def test_cbound(self, capture):
        code, out, err = capture(["cbound", "--m", "58"])
        assert code == 0 and out.strip() == "565"

    def test_hminus(self, capture):
        code, out, _ = capture(["hminus", "--m", "39"])
        assert code == 0 and out.strip() == "2"

    def test_vtilde(self, capture):
        code, out, _ = capture(["vtilde", "--m", "21"])
        assert code == 0 and out.strip() == "Z/4"

    def test_a2k(self, capture):
        code, out, _ = capture(["a2k", "--k", "2", "--m", "5"])
        assert code == 0 and out.strip() == "40"

    def test_a2k_large_modulus(self, capture):
        code, out, _ = capture(["a2k", "--k", "2", "--m", "100000000"])
        assert code == 0 and out.strip() == "1600000000"

    def test_vtilde_past_int_str_digit_limit(self, capture):
        # 2 has order 100002 mod 100003, so vtilde(2 * 100003) is cyclic of
        # order (2^50001 + 1) / 100003, which has 15048 digits: more than
        # the interpreter's default limit of 4300 on int-to-str conversion
        limit = sys.get_int_max_str_digits()
        code, out, err = capture(["vtilde", "--m", "200006"])
        assert code == 0 and err == ""
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            assert out == f"Z/{(2 ** 50001 + 1) // 100003}\n"
        finally:
            sys.set_int_max_str_digits(limit)

    def test_tate_km(self, capture):
        code, out, _ = capture(["tate", "--km", "4", "--degree", "1"])
        assert code == 0 and out.strip() == "Z/2 x Z/2 x Z/2"

    def test_tate_explicit(self, capture):
        code, out, _ = capture(["tate", "--invariants", "4",
                                "--involution", "3", "--degree", "1"])
        assert code == 0 and out.strip() == "Z/2"

    def test_tate_explicit_negation_is_the_default(self, capture):
        for degree in ("0", "1"):
            explicit = capture(["tate", "--invariants", "4", "--involution",
                                "3", "--degree", degree])
            default = capture(["tate", "--invariants", "4",
                               "--degree", degree])
            assert explicit == default and explicit[0] == 0

    def test_tate_two_generators(self, capture):
        # trivial action on the Z/2 part, negation on the Z/4 part
        code, out, _ = capture(["tate", "--invariants", "2,4",
                                "--involution", "1,0;0,3", "--degree", "1"])
        assert code == 0 and out.strip() == "Z/2 x Z/2"

    def test_tate_large_invariant_answers_at_once(self):
        # a 59-digit semiprime: normalising the invariants used to factor it
        semiprime = "30000000000000000000000000096400000000000000000000000002233"
        proc = _run_cli(["tate", "--invariants", semiprime, "--degree", "1"],
                        timeout=20)
        assert proc.returncode == 0 and proc.stdout == "0\n"

    def test_am(self, capture):
        code, out, _ = capture(["am", "--m", "29"])
        assert code == 0 and "Z/2 x Z/2 x Z/2" in out

    def test_verify(self, capture):
        code, out, _ = capture(["verify", "--n", "4", "--m", "19"])
        assert code == 0 and out.startswith("consistent")


class TestJsonOutput:
    def test_classify_infinite(self, capture):
        code, out, _ = capture(
            ["classify", "--n", "4", "--m", "4", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["mhs"] == {"verdict": "infinite"}
        assert set(payload) == {"n", "m", "mhs", "mhcob", "mhs_hcob",
                                "a2k_order", "ingredients", "provenance"}

    def test_round_trip(self, capture):
        from cycloclass.manifoldset import classify
        code, out, _ = capture(
            ["classify", "--n", "4", "--m", "29", "--format", "json"])
        assert code == 0
        parsed = json.loads(out)
        assert parsed == classify(4, 29).to_json_dict()
        assert json.dumps(parsed, sort_keys=True) == out.strip()

    def test_sweep_json(self, capture):
        code, out, _ = capture(["sweep", "--n", "4", "--m-min", "2",
                                "--m-max", "8", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert [entry["m"] for entry in payload] == [2, 3, 4, 5, 6, 7, 8]

    def test_global_flag_position(self, capture):
        code1, out1, _ = capture(
            ["--format", "json", "cbound", "--m", "22"])
        code2, out2, _ = capture(
            ["cbound", "--m", "22", "--format", "json"])
        assert code1 == code2 == 0
        assert out1 == out2


class TestExitCodes:
    def test_usage_error(self, capture):
        code, _, err = capture(["cbound"])
        assert code == 1 and err

    def test_unknown_command(self, capture):
        code, _, err = capture(["frobnicate"])
        assert code == 1

    def test_scope_error_odd_n(self, capture):
        code, _, err = capture(["classify", "--n", "5", "--m", "3"])
        assert code == 2 and "scope" in err

    def test_scope_error_unsupported_modulus(self, capture):
        code, _, err = capture(["vtilde", "--m", "105"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["am", "--m", "0"], ["am", "--m", "1"], ["am", "--m", "-4"],
        ["vtilde", "--m", "-6"], ["vtilde", "--m", "0"], ["vtilde", "--m", "1"],
        ["cbound", "--m", "0"], ["cbound", "--m", "1"],
        ["cbound", "--m", "-30"],
    ])
    def test_scope_error_order_below_two(self, capture, argv):
        code, out, err = capture(argv)
        assert code == 2 and out == ""
        assert "the cyclic order must be at least 2" in err

    @pytest.mark.parametrize("level", ["10", "40"])
    def test_scope_error_km_above_ceiling(self, capture, level):
        code, out, err = capture(["tate", "--km", level, "--degree", "1"])
        assert code == 2 and out == ""
        assert "levels above 9 are not built" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,code", [
        (["hminus", "--m", "1"], 0),
        (["hminus", "--m", "2"], 0),
        (["hminus", "--m", "0"], 1),
        (["hminus", "--m", "-4"], 1),
        (["a2k", "--k", "2", "--m", "1"], 1),
        (["a2k", "--k", "0", "--m", "5"], 1),
        (["classify", "--n", "2", "--m", "5"], 2),
        (["classify", "--n", "0", "--m", "5"], 2),
        (["classify", "--n", "-3", "--m", "5"], 2),
        (["verify", "--n", "2", "--m", "5"], 2),
        (["classify", "--n", "4", "--m", "1"], 2),
        (["tate", "--km", "2", "--degree", "1"], 0),
        (["tate", "--invariants", "4", "--involution", "2", "--degree", "1"],
         1),
        (["tate", "--km", "-1", "--degree", "1"], 1),
        (["tate", "--km", "-3", "--degree", "1"], 1),
        (["tate", "--km", "0", "--degree", "1"], 0),
        (["tate", "--km", "3", "--degree", "1", "--involution", "1"], 1),
    ])
    def test_documented_exit_codes(self, capture, argv, code):
        assert capture(argv)[0] == code

    @pytest.mark.parametrize("rank", [TATE_RANK_CEILING + 1, 60_000])
    def test_tate_rank_above_ceiling_fails_fast(self, rank):
        # 60,000 factors would ask for a 3.6e9-cell matrix
        proc = _run_cli(["tate", "--invariants", ",".join(["2"] * rank),
                         "--degree", "1"], timeout=20)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (
            f"out of scope: the invariants normalise to {rank} factors; "
            f"ranks above {TATE_RANK_CEILING} are not built\n")

    def test_tate_rank_growing_at_the_bottom_fails_fast(self):
        # each 2 after the 4 lands below the top of the chain: merged down
        # the whole chain one by one, 60,000 of them would take minutes
        invariants = ",".join(["4"] + ["2"] * 60_000)
        proc = _run_cli(["tate", "--invariants", invariants, "--degree", "1"],
                        timeout=20)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (
            "out of scope: the invariants normalise to 60001 factors; "
            f"ranks above {TATE_RANK_CEILING} are not built\n")

    def test_tate_rank_at_ceiling_answers(self):
        proc = _run_cli(["tate", "--invariants",
                         ",".join(["2"] * TATE_RANK_CEILING), "--degree", "1"],
                        timeout=60)
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == " x ".join(["Z/2"] * TATE_RANK_CEILING) + "\n"

    @pytest.mark.parametrize("rank,timeout", [
        (64, 60), pytest.param(200, 300, marks=pytest.mark.slow)])
    def test_tate_pair_swap_answers(self, rank, timeout):
        # swapping the generators in pairs makes (Z/2)^r a free module over
        # the group ring of C2, whose Tate groups vanish; an explicit
        # involution that is not +-id takes the Smith normal forms
        rows = [["0"] * rank for _ in range(rank)]
        for i in range(rank):
            rows[i][i ^ 1] = "1"
        proc = _run_cli(["tate", "--invariants", ",".join(["2"] * rank),
                         "--involution", ";".join(map(",".join, rows)),
                         "--degree", "1"], timeout=timeout)
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == "0\n"

    @pytest.mark.parametrize("involution", [None, "1"])
    def test_tate_rank_refused_before_any_matrix(self, capture, monkeypatch,
                                                 involution):
        def refuse(*args):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(cycloclass.cli, "IntMatrix", refuse)
        monkeypatch.setattr(cycloclass.cli, "InvModule", refuse)
        argv = ["tate", "--invariants", "2," * (TATE_RANK_CEILING + 1),
                "--degree", "0"]
        if involution is not None:
            argv += ["--involution", involution]
        code, out, err = capture(argv)
        assert code == 2 and out == ""
        assert f"ranks above {TATE_RANK_CEILING} are not built" in err

    @pytest.mark.parametrize("command", ["cbound", "vtilde"])
    @pytest.mark.parametrize("m,err", [
        (1, "m = 1: the cyclic order must be at least 2"),
        (4, "m = 4 is not square-free; the unit reduction applies to "
            "square-free moduli only"),
        (105, "m = 105: no unit-index reduction is implemented for 3 odd "
              "prime factors without the factor 2"),
        (210, "m = 210: no unit-index reduction is implemented for 3 odd "
              "prime factors")])
    def test_unit_reduction_scope_errors(self, capture, command, m, err):
        assert capture([command, "--m", str(m)]) == \
            (2, "", f"out of scope: {err}\n")

    def test_unit_reduction_at_a_prime(self, capture):
        # vtilde is trivial at a prime; cbound has no bound there
        assert capture(["vtilde", "--m", "7"]) == (0, "0\n", "")
        assert capture(["cbound", "--m", "7"]) == (
            2, "", "out of scope: m = 7: no unit-index reduction is "
            "implemented for 1 odd prime factors without the factor 2\n")

    def test_empty_sweep_range(self, capture):
        code, out, err = capture(["sweep", "--n", "4", "--m-min", "5",
                                  "--m-max", "2"])
        assert code == 1 and out == ""
        assert "--m-min 5 exceeds --m-max 2" in err
        assert "Traceback" not in err


class TestSweepText:
    def test_hminus_beyond_ceiling_keeps_the_verdicts(self, capture):
        # phi(m) exceeds HMINUS_PHI_CEILING at every m but 9840 and 9842
        # (phi 2560 and 3888): those rows leave the h- columns blank and
        # keep their verdicts
        code, out, err = capture(["sweep", "--n", "4", "--m-min", "9838",
                                  "--m-max", "9843"])
        assert code == 0 and err == ""
        rows = [r.split() for r in out.strip().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(9838, 9844))
        assert not any("error:" in r for r in rows)
        blank = {int(r[0]): r[4:] for r in rows if r[2:4] == ["-", "-"]}
        assert blank == {m: ["finite"] * 3 for m in (9838, 9839, 9841, 9843)}
        _, json_out, _ = capture(["sweep", "--n", "4", "--m-min", "9838",
                                  "--m-max", "9843", "--format", "json"])
        assert [[r[k]["verdict"] for k in ("mhs", "mhcob", "mhs_hcob")]
                for r in json.loads(json_out)] == [r[4:] for r in rows]

    @pytest.mark.parametrize("n", ["3", "2", "-2"])
    def test_degree_out_of_scope_fails_once(self, capture, n):
        # n is checked once for the whole range, not once per m
        code, out, err = capture(["sweep", "--n", n, "--m-min", "2",
                                  "--m-max", "4"])
        assert code == 2 and out == ""
        assert err == \
            f"out of scope: n = {n}: only even n >= 4 is classified\n"

    def test_scope_error_is_still_an_error_row(self, capture):
        # m = 1 has no cyclic group of order at least 2
        code, out, _ = capture(["sweep", "--n", "4", "--m-min", "1",
                                "--m-max", "2"])
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert rows[0].startswith("     1  error: m = 1:")
        assert rows[1].split()[2:] == ["1", "1"] + ["trivial"] * 3

    def test_columns(self, capture):
        code, out, _ = capture(["sweep", "--n", "4", "--m-min", "2",
                                "--m-max", "20"])
        assert code == 0
        lines = out.strip().splitlines()
        assert "sqfree" in lines[0] and "odd(h-)" in lines[0]
        assert len(lines) == 20  # header + 19 rows
        trivial_rows = [l for l in lines[1:] if " trivial " in f" {l} "]
        assert len([l for l in lines[1:] if l.split()[4] == "trivial"]) == 11

    @pytest.mark.parametrize("line", list(pins.SWEEP_DIGESTS),
                             ids=["text-n4-1000", "json-n4-2000",
                                  "json-n6-2000"])
    def test_stdout_digest(self, capture, line):
        code, out, err = capture(line.split())
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == \
            pins.SWEEP_DIGESTS[line]


class TestCache:
    def test_identical_bytes_with_and_without_cache(self, capture, tmp_path):
        cache_file = tmp_path / "cache.json"
        args = ["classify", "--n", "4", "--m", "29", "--format", "json"]
        code1, out1, _ = capture(args)
        code2, out2, _ = capture(args + ["--cache", str(cache_file)])
        code3, out3, _ = capture(args + ["--cache", str(cache_file)])
        assert code1 == code2 == code3 == 0
        assert out1 == out2 == out3
        data = json.loads(cache_file.read_text())
        assert data["schema"] == 2
        assert len(data["entries"]) == 1

    def test_version_mismatch_invalidates(self, capture, tmp_path):
        cache_file = tmp_path / "cache.json"
        cache_file.write_text(json.dumps({
            "schema": 1, "tool_version": "0.0.0",
            "entries": {"whatever": "stale"}}))
        code, out, _ = capture(["cbound", "--m", "58",
                                "--cache", str(cache_file)])
        assert code == 0 and out.strip() == "565"
        data = json.loads(cache_file.read_text())
        assert "stale" not in json.dumps(data["entries"])

    def test_env_var_default(self, capture, tmp_path, monkeypatch):
        cache_file = tmp_path / "env-cache.json"
        monkeypatch.setenv("CYCLOCLASS_CACHE", str(cache_file))
        code, out, _ = capture(["cbound", "--m", "26"])
        assert code == 0 and out.strip() == "5"
        assert cache_file.exists()

    def test_text_and_json_cached_separately(self, capture, tmp_path):
        cache_file = tmp_path / "cache.json"
        base = ["vtilde", "--m", "21", "--cache", str(cache_file)]
        _, text_out, _ = capture(base)
        _, json_out, _ = capture(base + ["--format", "json"])
        assert text_out.strip() == "Z/4"
        assert json.loads(json_out)["invariant_factors"] == [4]

    @pytest.mark.parametrize("content", [
        "[]",
        '"x"',
        "7",
        "null",
        json.dumps({"schema": 1, "tool_version": __version__, "entries": []}),
        json.dumps({"schema": 1, "tool_version": __version__,
                    "entries": {"k": 5}}),
        json.dumps({"schema": SCHEMA_VERSION, "tool_version": __version__,
                    "entries": []}),
        # the code digest changes with every edit of the package, so these
        # parameters carry fixed ids
        pytest.param(json.dumps({"schema": SCHEMA_VERSION,
                                 "code_sha256": CODE, "entries": []}),
                     id="current-code-entries-list"),
        pytest.param(json.dumps({"schema": SCHEMA_VERSION,
                                 "code_sha256": CODE, "entries": {"k": 5}}),
                     id="current-code-entry-int"),
        pytest.param(json.dumps({"schema": SCHEMA_VERSION,
                                 "code_sha256": CODE,
                                 "entries": {"k": "565"}}),
                     id="current-code-entry-str"),
        pytest.param(json.dumps({"schema": SCHEMA_VERSION,
                                 "code_sha256": CODE,
                                 "entries": {"k": {"output": "565"}}}),
                     id="current-code-entry-without-digest"),
        # deeper than the JSON decoder follows: RecursionError
        pytest.param("[" * 100000 + "]" * 100000, id="nested-100000-deep"),
    ])
    def test_wrong_shape_treated_as_empty(self, capture, tmp_path, content):
        cache_file = tmp_path / "cache.json"
        cache_file.write_text(content)
        code, out, err = capture(["cbound", "--m", "58",
                                  "--cache", str(cache_file)])
        assert code == 0 and out.strip() == "565" and err == ""
        data = json.loads(cache_file.read_text())
        assert [entry["output"] for entry in data["entries"].values()] \
            == ["565"]

    @pytest.mark.parametrize("output", [
        pytest.param("999", id="other-output"),
        # no UTF-8 form, so no digest can match it
        pytest.param("\ud800", id="lone-surrogate"),
    ])
    def test_tampered_entry_is_recomputed(self, capture, tmp_path, output):
        cache_file = tmp_path / "cache.json"
        args = ["hminus", "--m", "39", "--cache", str(cache_file)]
        assert capture(args)[:2] == (0, "2\n")
        data = json.loads(cache_file.read_text())
        (entry,) = data["entries"].values()
        entry["output"] = output
        cache_file.write_text(json.dumps(data))
        code, out, err = capture(args)
        assert code == 0 and out == "2\n" and err == ""
        (entry,) = json.loads(cache_file.read_text())["entries"].values()
        assert entry["output"] == "2"


@pytest.mark.parametrize("target", ["directory", "missing/cache.json"])
def test_unwritable_cache_costs_only_the_reuse(tmp_path, target):
    (tmp_path / "directory").mkdir()
    plain = _run_cli(["hminus", "--m", "39"], timeout=30)
    proc = _run_cli(["--cache", str(tmp_path / target), "hminus", "--m", "39"],
                    timeout=30)
    assert proc.returncode == 0 and proc.stdout == plain.stdout == "2\n"
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("cache not written: ")
    assert list((tmp_path / "directory").iterdir()) == []


def test_cache_of_other_code_is_not_replayed(tmp_path):
    package = tmp_path / "copy" / "cycloclass"
    shutil.copytree(os.path.dirname(cycloclass.__file__), package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cache_file = tmp_path / "cache.json"
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    env.pop("CYCLOCLASS_CACHE", None)

    def hminus_39():
        proc = subprocess.run(
            [sys.executable, "-m", "cycloclass.cli", "hminus", "--m", "39",
             "--cache", str(cache_file)],
            capture_output=True, text=True, timeout=30, env=env)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        return proc.stdout

    assert hminus_39() == "2\n"
    # a wrong answer stored with a matching digest is replayed by the same
    # code, which shows that the next call could replay it
    data = json.loads(cache_file.read_text())
    (entry,) = data["entries"].values()
    entry["output"] = "999"
    entry["sha256"] = hashlib.sha256(b"999").hexdigest()
    cache_file.write_text(json.dumps(data))
    assert hminus_39() == "999\n"

    source = package / "arith.py"
    source.write_text(source.read_text().replace(
        "#: trial division stops at this bound",
        "#: trial division stops at this bound, 2^16", 1))
    assert hminus_39() == "2\n"
    assert json.loads(cache_file.read_text())["code_sha256"] \
        != data["code_sha256"]


def _child_env():
    src = os.path.dirname(os.path.dirname(cycloclass.__file__))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": src + (os.pathsep + path if path else "")}


def _run_cli(argv, timeout):
    return subprocess.run([sys.executable, "-m", "cycloclass.cli", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          env=_child_env())


def test_cli_families_run_without_sympy():
    # sympy is the tests' oracle: no query imports it
    script = textwrap.dedent("""
        import contextlib, io, sys
        import cycloclass, cycloclass.cli
        assert "sympy" not in sys.modules, "sympy imported at start-up"
        for argv in (["hminus", "--m", "39"], ["cbound", "--m", "58"],
                     ["vtilde", "--m", "21"], ["am", "--m", "29"],
                     ["a2k", "--k", "2", "--m", "12"],
                     ["tate", "--km", "5", "--degree", "1"],
                     ["classify", "--n", "4", "--m", "30"],
                     ["verify", "--n", "4", "--m", "21"],
                     ["sweep", "--n", "4", "--m-min", "2", "--m-max", "11"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cycloclass.cli.run(argv) == 0, argv
            assert "sympy" not in sys.modules, argv
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60, env=_child_env())
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [["classify", "--n", "4"], ["cbound"],
                                  ["am"], ["vtilde"]])
def test_primality_above_2_64_without_sympy(argv):
    # the prime 2^64 + 13 takes the thirteen-base strong test; with sympy
    # blocked the answer keeps the bytes and the exit code of the corpus
    argv = [*argv, "--m", str(pins.ABOVE_2_64)]
    script = ("import sys; sys.modules['sympy'] = None; "
              "import cycloclass.cli; cycloclass.cli.main()")
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, timeout=60,
                          env=_child_env())
    assert (proc.stdout, proc.stderr, proc.returncode) == \
        pins.QUERIES[" ".join(argv)]


@pytest.mark.parametrize("argv", [["classify", "--n", "4"],
                                  ["a2k", "--k", "2"], ["am"]])
def test_queries_at_a_prime_whose_p_minus_one_rho_cannot_split(argv):
    # factoring p - 1 would spend the rho budget (2.7 s) and exit 2
    argv = [*argv, "--m", str(pins.LARGE_PRIME)]
    start = time.monotonic()
    proc = _run_cli(argv, timeout=60)
    assert time.monotonic() - start < 1
    assert (proc.stdout, proc.stderr, proc.returncode) == \
        pins.QUERIES[" ".join(argv)]


@pytest.mark.parametrize("exponent", [30, 40])
def test_classify_large_power_of_two(exponent):
    # the kernel-group ladder at 2^e has order 2^(2^(e-1) - 1 - e(e-1)/2);
    # only its exponent is built
    proc = _run_cli(["classify", "--n", "4", "--m", str(2 ** exponent)],
                    timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert "homotopy types modulo s.h.e. and h-cobordism:  finite" \
        in proc.stdout


class TestDeepAboveTheHminusCeiling:
    """A deep query refuses only when the branch it takes reads h^- above
    HMINUS_PHI_CEILING."""

    def test_am_reads_no_class_number_at_a_power_of_two(self, capture):
        out, err, code = pins.QUERIES["am --m 8192"]
        assert capture(["am", "--m", "8192"]) == (code, out, err)
        assert (code, err) == (0, "") and out.startswith("unknown: ")

    @pytest.mark.parametrize("argv", [
        ["classify", "--n", "4", "--m", "6561", "--deep"],
        ["verify", "--n", "4", "--m", "8192"]])
    def test_branches_below_the_ceiling_answer(self, capture, argv):
        code, out, err = capture(argv)
        assert code == 0 and out and err == ""

    @pytest.mark.parametrize("m", ["4003", "24389"])
    def test_branches_reading_hminus_above_it_refuse(self, capture, m):
        # 24389 = 29^3: h is even, so the class parts are read
        code, out, err = capture(["classify", "--n", "4", "--m", m,
                                  "--deep"])
        assert code == 2 and out == ""
        assert f"is above {HMINUS_PHI_CEILING}" in err


class TestPinnedAnswers:
    """The answers of ``pins.QUERIES`` at 130, 65, 15 and 21, through the
    capture fixture."""

    @staticmethod
    def pinned(line):
        out, err, code = pins.QUERIES[line]
        return code, out, err

    def test_classify_deep_130(self, capture):
        line = "classify --n 4 --m 130 --deep"
        assert capture(line.split()) == self.pinned(line)

    def test_verify_65(self, capture):
        line = "verify --n 4 --m 65"
        assert capture(line.split()) == self.pinned(line)

    # the kernel groups at 15 (trivial action) and 21 (negation) are the
    # only stored facts whose J, I and Tate group are not all 0
    @pytest.mark.parametrize("m,expected", [
        (m, pins.QUERIES[f"classify --n 4 --m {m} --deep --format json"][0])
        for m in (15, 21)])
    def test_classify_deep_json(self, capture, m, expected):
        line = f"classify --n 4 --m {m} --deep --format json"
        assert capture(line.split()) == (0, expected, "")
        assert self.pinned(line) == (0, expected, "")


#: 2^10 3^6 5^4 7^3 11^2 13^2 17 19 23 29 31 37 41 43, with 3,548,160
#: divisors
_MANY_DIVISORS = 1425665971340537072065920000
#: the products of the first 16 and of the first 17 primes
_PRIMORIAL_16 = 32589158477190044730
_PRIMORIAL_17 = 1922760350154212639070


def _no_divisors(n):
    raise AssertionError(f"the divisors of {n} were listed")


def test_many_divisors_are_counted_not_listed(capture, monkeypatch):
    monkeypatch.setattr(ktheory, "divisors", _no_divisors)
    code, out, err = capture(["classify", "--n", "4", "--m",
                              str(_MANY_DIVISORS), "--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["ingredients"]["free_rank"] == \
        _MANY_DIVISORS // 2 + 1 - 3548160


@pytest.mark.parametrize("argv", [
    ["classify", "--n", "4"], ["classify", "--n", "4", "--deep"],
    ["verify", "--n", "4"]])
def test_square_free_modulus_past_the_divisor_ceiling_fails_fast(
        capture, monkeypatch, argv):
    # 17 primes, 2^17 divisors: refused before any divisor is listed
    monkeypatch.setattr(ktheory, "divisors", _no_divisors)
    start = time.perf_counter()
    code, out, err = capture([*argv, "--m", str(_PRIMORIAL_17)])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (f"out of scope: m = {_PRIMORIAL_17} is square-free with "
                   "131072 divisors; the class parts of more than 65536 "
                   "divisors are not listed\n")


def test_sweep_past_the_divisor_ceiling_is_an_error_row(capture):
    code, out, _ = capture(["sweep", "--n", "4", "--m-min",
                            str(_PRIMORIAL_17), "--m-max",
                            str(_PRIMORIAL_17)])
    assert code == 0
    assert out.splitlines()[1] == (f"{_PRIMORIAL_17}  error: m = "
                                   f"{_PRIMORIAL_17} is square-free with "
                                   "131072 divisors; the class parts of more "
                                   "than 65536 divisors are not listed")


def test_square_free_modulus_at_the_divisor_ceiling_answers(capture):
    code, out, err = capture(["classify", "--n", "4", "--m",
                              str(_PRIMORIAL_16)])
    assert (code, err) == (0, "")
    assert out.endswith("  provenance: rule-derived\n")


def test_hminus_above_phi_ceiling_fails_fast():
    proc = _run_cli(["hminus", "--m", "10007"], timeout=5)
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"is above {HMINUS_PHI_CEILING}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_hminus_of_a_huge_semiprime_fails_fast():
    # two 31-digit primes: refused before any attempt to factor m
    m = "3000000000000000000000000000262000000000000000000000000005187"
    proc = _run_cli(["hminus", "--m", m], timeout=5)
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"is above {HMINUS_PHI_CEILING}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["hminus", "--m", "39"],
    ["--format", "json", "sweep", "--n", "4", "--m-min", "2",
     "--m-max", "400"]])
def test_reader_that_closes_stdout_early(argv):
    # the read end is closed before the child writes a byte: the output
    # ends there, with exit code 0 and nothing on stderr
    proc = subprocess.Popen([sys.executable, "-m", "cycloclass.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_child_env())
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0 and err == b""


def test_reader_to_the_end_gets_every_byte():
    # main ends the process with os._exit, which flushes nothing: with
    # stdout buffered, the tail of an answer this large reaches the pipe
    # only by main's own flush
    line = "--format json sweep --n 4 --m-min 2 --m-max 2000"
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, "-m", "cycloclass.cli",
                           *line.split()], capture_output=True, timeout=60,
                          env=env)
    assert proc.returncode == 0 and proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == \
        pins.SWEEP_DIGESTS[line]


@pytest.mark.parametrize("argv", [
    ["classify", "--n", "4"], ["am"], ["verify", "--n", "4"], ["vtilde"],
    ["cbound"], ["a2k", "--k", "2"]])
def test_unfactored_modulus_fails_fast(argv):
    # two 31-digit primes: Pollard-Brent rho gives up within its budget
    m = "3000000000000000000000000000262000000000000000000000000005187"
    proc = _run_cli([*argv, "--m", m], timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"cannot factor {m}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["cbound", "--m", "2000000014"], ["vtilde", "--m", "2000000014"],
    ["vtilde", "--m", "20000006"]])
def test_huge_torus_fails_fast(argv):
    # the order of 2 mod 1000000007 is 500000003: the torus at 2 would
    # have half a billion bits
    proc = _run_cli(argv, timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "norm-one torus" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_tori_near_the_ceiling_answer_fast():
    # 34747 * 34757: two tori of about 2^18 bits each, whose orders no
    # Smith normal form may take as entries
    proc = _run_cli(["vtilde", "--m", "1207701479"], timeout=20)
    assert proc.returncode == 0 and proc.stdout.startswith("Z/")


@st.composite
def _argv(draw):
    """Any subcommand with small, often invalid arguments."""
    def number(low, high):
        return str(draw(st.integers(low, high)))

    csv = st.one_of(
        st.lists(st.integers(-3, 16).map(str), max_size=4).map(",".join),
        st.text(alphabet="0123456789,;- x", max_size=10))
    matrix = st.one_of(
        st.lists(st.lists(st.integers(-3, 5).map(str), max_size=4)
                 .map(",".join), max_size=4).map(";".join),
        st.text(alphabet="0123456789,;- x", max_size=12))
    command = draw(st.sampled_from(["classify", "sweep", "verify", "hminus",
                                    "cbound", "vtilde", "am", "a2k", "tate"]))
    argv = [command]
    if command in ("classify", "sweep", "verify"):
        argv += ["--n", number(-3, 10)]
    if command == "sweep":
        argv += ["--m-min", number(-5, 150), "--m-max", number(-5, 150)]
    elif command == "a2k":
        argv += ["--k", number(-2, 8), "--m", number(-5, 150)]
    elif command == "tate":
        argv += ["--degree", number(-3, 5)]
        if draw(st.booleans()):
            argv += ["--km", number(-2, 7)]
        else:
            argv += ["--invariants", draw(csv)]
            if draw(st.booleans()):
                argv += ["--involution", draw(matrix)]
    else:
        argv += ["--m", number(-5, 150)]
    if command == "classify" and draw(st.booleans()):
        argv.append("--deep")
    if draw(st.booleans()):
        argv += ["--format", "json"]
    return argv


@settings(max_examples=300, deadline=None)
@given(_argv())
def test_exit_code_contract_for_any_argv(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv


PARSER = _build_parser()


def test_parse_reads_every_cli_cold_argv():
    # the benchmark's cold queries, each with --cache and --format json
    # before, after or without the subcommand: all take the direct path
    expected = TESTS.parent / "perfbench" / "expected" / "cli-cold.json"
    queries = json.loads(expected.read_text())["queries"]

    def places(words):
        return [([], []), (words, []), ([], words)]

    for query in queries:
        for (cache_before, cache_after), (format_before, format_after) in \
                itertools.product(places(["--cache", "F"]),
                                  places(["--format", "json"])):
            argv = [*cache_before, *format_before, *json.loads(query),
                    *cache_after, *format_after]
            args = _parse(argv)
            assert args is not None, argv
            assert vars(args) == vars(PARSER.parse_args(argv)), argv


#: words a near miss of the plain form is made of
_NEAR_MISSES = ["--form", "--m=39", "--", "", "-4", "-x", "hminus", "tate",
                "--format", "json", "xml", "--cache", "--deep", "--m", "--km",
                "--invariants", "-h"]


@st.composite
def _near_miss_argv(draw):
    """An argv of ``_argv`` with a word taken out, and up to three runs of
    one or two words put anywhere: near misses, or words of the argv
    itself, which repeat an option or give it a second value."""
    argv = draw(_argv())
    if draw(st.booleans()):
        del argv[draw(st.integers(0, len(argv) - 1))]
    words = st.sampled_from(_NEAR_MISSES + argv)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = draw(st.lists(words, min_size=1, max_size=2))
    return argv


@settings(max_examples=500, deadline=None)
@given(_near_miss_argv())
@example(["tate", "--km", "3", "--invariants", "2", "--degree", "1"])
@example(["tate", "--km", "3", "--km", "4", "--degree", "1"])
@example(["tate", "--degree", "1"])
@example(["tate", "--invariants", "-²", "--degree", "1"])
@example(["--format", "json", "hminus", "--m", "3", "--format", "text"])
@example(["--format", "xml", "hminus", "--m", "3"])
@example(["classify", "--n", "4", "--m", "5", "--cache", "--deep"])
@example(["--cache", "hminus", "hminus", "--m", "-4", "--m", "hminus"])
@example(["--cache", "", "hminus", "--m", ""])
@example(["hminus", "--m", "39", "--"])
@example(["hminus", "--m", "3", "hminus"])
@example(["hminus", "--form", "json", "--m", "3"])
@example(["hminus", "--m=39"])
@example(["sweep", "--n", "4", "--m-min", "2"])
@example(["hminus", "--m"])
@example(["--cache", "F"])
def test_parse_is_argparse_or_none(argv):
    args = _parse(argv)
    assert args is None or vars(args) == vars(PARSER.parse_args(argv)), argv


#: stdout, stderr and exit code of --help and of malformed lines from the
#: parser that read every argv with argparse, for this interpreter
ARGPARSE_PINS = [
    pin for pin in json.loads(
        (TESTS / "argparse_pins.json").read_text(encoding="utf-8"))["pins"]
    if "%d.%d" % sys.version_info[:2] in pin["python"]]


@pytest.mark.parametrize("pin", ARGPARSE_PINS,
                         ids=lambda pin: " ".join(pin["argv"]) or "-")
def test_help_and_usage_errors_keep_their_bytes(capsys, monkeypatch, pin):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = run(pin["argv"])
    except SystemExit as exit:
        code = exit.code
    out, err = capsys.readouterr()
    assert (out, err, code) == (pin["stdout"], pin["stderr"], pin["exit"])


#: any text, lone surrogates included
_ANY_TEXT = st.text(st.one_of(st.characters(codec=None, exclude_categories=()),
                              st.characters(categories=["Cs"])),
                    max_size=12)
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _ANY_TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(_ANY_TEXT, inner, max_size=3)),
    max_leaves=8)


@st.composite
def _cache_file(draw):
    """Any text, any JSON, or a JSON document that is mostly a cache of
    the current code holding ``hminus --m 39``, with any part of it
    replaced by something else or left out."""
    kind = draw(st.sampled_from(["text", "json", "cache"]))
    if kind == "text":
        return draw(_ANY_TEXT)
    if kind == "json":
        return json.dumps(draw(_JSON))

    def mostly(valid, other):
        """``valid`` three times in four, else a draw from ``other``."""
        return valid if draw(st.integers(0, 3)) else draw(other)

    def entry():
        return mostly({"output": draw(st.one_of(st.just("2"), _ANY_TEXT)),
                       "sha256": mostly(hashlib.sha256(b"2").hexdigest(),
                                        _ANY_TEXT)}, _JSON)

    entries = {draw(_ANY_TEXT): entry()
               for _ in range(draw(st.integers(0, 2)))}
    if draw(st.integers(0, 3)):
        entries[KEY_39] = entry()
    document = {"schema": mostly(SCHEMA_VERSION, _JSON),
                "code_sha256": mostly(CODE, _ANY_TEXT),
                "entries": mostly(entries, _JSON)}
    for key in list(document):
        if not draw(st.integers(0, 7)):
            del document[key]
    return json.dumps(document)


@settings(max_examples=200, deadline=None)
@given(_cache_file())
def test_exit_code_contract_for_any_cache_file(content):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "cache.json")
        with open(path, "w", encoding="utf-8",
                  errors="surrogatepass") as handle:
            handle.write(content)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["--cache", path, "hminus", "--m", "39"])
    assert code == 0 and out.getvalue() == "2\n" and err.getvalue() == ""
