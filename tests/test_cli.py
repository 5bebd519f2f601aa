import contextlib
import io
import json
import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

import cycloclass
from cycloclass import __version__
from cycloclass.classnumber import HMINUS_PHI_CEILING
from cycloclass.cli import SCHEMA_VERSION, run


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
        json.dumps({"schema": SCHEMA_VERSION, "tool_version": __version__,
                    "entries": {"k": 5}}),
        json.dumps({"schema": SCHEMA_VERSION, "tool_version": __version__,
                    "entries": {"k": "565"}}),
        json.dumps({"schema": SCHEMA_VERSION, "tool_version": __version__,
                    "entries": {"k": {"output": "565"}}}),
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

    def test_tampered_entry_is_recomputed(self, capture, tmp_path):
        cache_file = tmp_path / "cache.json"
        args = ["hminus", "--m", "39", "--cache", str(cache_file)]
        assert capture(args)[:2] == (0, "2\n")
        data = json.loads(cache_file.read_text())
        (entry,) = data["entries"].values()
        entry["output"] = "999"
        cache_file.write_text(json.dumps(data))
        code, out, err = capture(args)
        assert code == 0 and out == "2\n" and err == ""
        (entry,) = json.loads(cache_file.read_text())["entries"].values()
        assert entry["output"] == "2"


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
    # sympy is imported only past the stdlib fast path of cycloclass.arith
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


@pytest.mark.parametrize("exponent", [30, 40])
def test_classify_large_power_of_two(exponent):
    # the kernel-group ladder at 2^e has order 2^(2^(e-1) - 1 - e(e-1)/2);
    # only its exponent is built
    proc = _run_cli(["classify", "--n", "4", "--m", str(2 ** exponent)],
                    timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert "homotopy types modulo s.h.e. and h-cobordism:  finite" \
        in proc.stdout


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
    ["classify", "--n", "4"], ["am"], ["verify", "--n", "4"], ["vtilde"],
    ["cbound"], ["a2k", "--k", "2"]])
def test_unfactored_modulus_fails_fast(argv):
    # two 31-digit primes: Pollard-Brent rho gives up within its budget
    m = "3000000000000000000000000000262000000000000000000000000005187"
    proc = _run_cli([*argv, "--m", m], timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"cannot factor {m}" in proc.stderr
    assert "Traceback" not in proc.stderr


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
