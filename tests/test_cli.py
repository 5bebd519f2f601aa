import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import cycloclass
import pins
from cycloclass import __version__, ktheory
from cycloclass.classnumber import HMINUS_PHI_CEILING
from cycloclass.cli import (TATE_RANK_CEILING, _build_parser,
                            _canonical_key, _code_digest, _digest, _parse,
                            answer, run)
from pins import child_env

TESTS = Path(__file__).resolve().parent

CODE = _code_digest()
#: the cache key of ``hminus --m 39``, whose answer is 2
KEY_39 = _canonical_key(_build_parser().parse_args(["hminus", "--m", "39"]))
#: and of ``cbound --m 58``, whose answer is 565
KEY_58 = _canonical_key(_build_parser().parse_args(["cbound", "--m", "58"]))


class TestBasicCommands:
    def test_cbound(self):
        code, out, err = answer(["cbound", "--m", "58"])
        assert code == 0 and out.strip() == "565"

    def test_hminus(self):
        code, out, _ = answer(["hminus", "--m", "39"])
        assert code == 0 and out.strip() == "2"

    def test_vtilde(self):
        code, out, _ = answer(["vtilde", "--m", "21"])
        assert code == 0 and out.strip() == "Z/4"

    def test_a2k(self):
        code, out, _ = answer(["a2k", "--k", "2", "--m", "5"])
        assert code == 0 and out.strip() == "40"

    def test_a2k_large_modulus(self):
        code, out, _ = answer(["a2k", "--k", "2", "--m", "100000000"])
        assert code == 0 and out.strip() == "1600000000"

    def test_vtilde_past_int_str_digit_limit(self):
        # 2 has order 100002 mod 100003, so vtilde(2 * 100003) is cyclic of
        # order (2^50001 + 1) / 100003, which has 15048 digits: more than
        # the interpreter's default limit of 4300 on int-to-str conversion
        limit = sys.get_int_max_str_digits()
        code, out, err = answer(["vtilde", "--m", "200006"])
        assert code == 0 and err == ""
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            assert out == f"Z/{(2 ** 50001 + 1) // 100003}\n"
        finally:
            sys.set_int_max_str_digits(limit)

    def test_tate_km(self):
        code, out, _ = answer(["tate", "--km", "4", "--degree", "1"])
        assert code == 0 and out.strip() == "Z/2 x Z/2 x Z/2"

    def test_tate_explicit(self):
        code, out, _ = answer(["tate", "--invariants", "4",
                               "--involution", "3", "--degree", "1"])
        assert code == 0 and out.strip() == "Z/2"

    def test_tate_explicit_negation_is_the_default(self):
        for degree in ("0", "1"):
            explicit = answer(["tate", "--invariants", "4", "--involution",
                               "3", "--degree", degree])
            default = answer(["tate", "--invariants", "4",
                              "--degree", degree])
            assert explicit == default and explicit[0] == 0

    def test_tate_two_generators(self):
        # trivial action on the Z/2 part, negation on the Z/4 part
        code, out, _ = answer(["tate", "--invariants", "2,4",
                               "--involution", "1,0;0,3", "--degree", "1"])
        assert code == 0 and out.strip() == "Z/2 x Z/2"

    def test_tate_large_invariant_answers_at_once(self):
        # a 59-digit semiprime: normalising the invariants used to factor it
        semiprime = "30000000000000000000000000096400000000000000000000000002233"
        proc = _run_cli(["tate", "--invariants", semiprime, "--degree", "1"],
                        timeout=20)
        assert proc.returncode == 0 and proc.stdout == "0\n"

    def test_am(self):
        code, out, _ = answer(["am", "--m", "29"])
        assert code == 0 and "Z/2 x Z/2 x Z/2" in out

    def test_verify(self):
        code, out, _ = answer(["verify", "--n", "4", "--m", "19"])
        assert code == 0 and out.startswith("consistent")


class TestJsonOutput:
    def test_classify_infinite(self):
        code, out, _ = answer(
            ["classify", "--n", "4", "--m", "4", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["mhs"] == {"verdict": "infinite"}
        assert set(payload) == {"n", "m", "mhs", "mhcob", "mhs_hcob",
                                "a2k_order", "ingredients", "provenance"}

    def test_round_trip(self):
        from cycloclass.manifoldset import classify
        code, out, _ = answer(
            ["classify", "--n", "4", "--m", "29", "--format", "json"])
        assert code == 0
        parsed = json.loads(out)
        assert parsed == classify(4, 29).to_json_dict()
        assert json.dumps(parsed, sort_keys=True) == out.strip()

    def test_sweep_json(self):
        code, out, _ = answer(["sweep", "--n", "4", "--m-min", "2",
                               "--m-max", "8", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert [entry["m"] for entry in payload] == [2, 3, 4, 5, 6, 7, 8]

    def test_global_flag_position(self):
        code1, out1, _ = answer(
            ["--format", "json", "cbound", "--m", "22"])
        code2, out2, _ = answer(
            ["cbound", "--m", "22", "--format", "json"])
        assert code1 == code2 == 0
        assert out1 == out2


class TestExitCodes:
    def test_usage_error(self):
        code, _, err = answer(["cbound"])
        assert code == 1 and err

    def test_unknown_command(self):
        code, _, err = answer(["frobnicate"])
        assert code == 1

    def test_scope_error_odd_n(self):
        code, _, err = answer(["classify", "--n", "5", "--m", "3"])
        assert code == 2 and "scope" in err

    def test_scope_error_unsupported_modulus(self):
        code, _, err = answer(["vtilde", "--m", "105"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["am", "--m", "0"], ["am", "--m", "1"], ["am", "--m", "-4"],
        ["vtilde", "--m", "-6"], ["vtilde", "--m", "0"], ["vtilde", "--m", "1"],
        ["cbound", "--m", "0"], ["cbound", "--m", "1"],
        ["cbound", "--m", "-30"],
    ])
    def test_scope_error_order_below_two(self, argv):
        code, out, err = answer(argv)
        assert code == 2 and out == ""
        assert "the cyclic order must be at least 2" in err

    @pytest.mark.parametrize("level", ["10", "40"])
    def test_scope_error_km_above_ceiling(self, level):
        code, out, err = answer(["tate", "--km", level, "--degree", "1"])
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
    def test_documented_exit_codes(self, argv, code):
        assert answer(argv)[0] == code

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
    def test_tate_rank_refused_before_any_matrix(self, monkeypatch,
                                                 involution):
        def refuse(*args):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(cycloclass.cli, "IntMatrix", refuse)
        monkeypatch.setattr(cycloclass.cli, "InvModule", refuse)
        argv = ["tate", "--invariants", "2," * (TATE_RANK_CEILING + 1),
                "--degree", "0"]
        if involution is not None:
            argv += ["--involution", involution]
        code, out, err = answer(argv)
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
    def test_unit_reduction_scope_errors(self, command, m, err):
        assert answer([command, "--m", str(m)]) == \
            (2, "", f"out of scope: {err}\n")

    def test_unit_reduction_at_a_prime(self):
        # vtilde is trivial at a prime; cbound has no bound there
        assert answer(["vtilde", "--m", "7"]) == (0, "0\n", "")
        assert answer(["cbound", "--m", "7"]) == (
            2, "", "out of scope: m = 7: no unit-index reduction is "
            "implemented for 1 odd prime factors without the factor 2\n")

    def test_empty_sweep_range(self):
        code, out, err = answer(["sweep", "--n", "4", "--m-min", "5",
                                 "--m-max", "2"])
        assert code == 1 and out == ""
        assert "--m-min 5 exceeds --m-max 2" in err
        assert "Traceback" not in err


class TestSweepText:
    def test_hminus_beyond_ceiling_keeps_the_verdicts(self):
        # phi(m) exceeds HMINUS_PHI_CEILING at every m but 9840 and 9842
        # (phi 2560 and 3888): those rows leave the h- columns blank and
        # keep their verdicts
        code, out, err = answer(["sweep", "--n", "4", "--m-min", "9838",
                                 "--m-max", "9843"])
        assert code == 0 and err == ""
        rows = [r.split() for r in out.strip().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(9838, 9844))
        assert not any("error:" in r for r in rows)
        blank = {int(r[0]): r[4:] for r in rows if r[2:4] == ["-", "-"]}
        assert blank == {m: ["finite"] * 3 for m in (9838, 9839, 9841, 9843)}
        _, json_out, _ = answer(["sweep", "--n", "4", "--m-min", "9838",
                                 "--m-max", "9843", "--format", "json"])
        assert [[r[k]["verdict"] for k in ("mhs", "mhcob", "mhs_hcob")]
                for r in json.loads(json_out)] == [r[4:] for r in rows]

    @pytest.mark.parametrize("n", ["3", "2", "-2"])
    def test_degree_out_of_scope_fails_once(self, n):
        # n is checked once for the whole range, not once per m
        code, out, err = answer(["sweep", "--n", n, "--m-min", "2",
                                 "--m-max", "4"])
        assert code == 2 and out == ""
        assert err == \
            f"out of scope: n = {n}: only even n >= 4 is classified\n"

    def test_scope_error_is_still_an_error_row(self):
        # m = 1 has no cyclic group of order at least 2
        code, out, _ = answer(["sweep", "--n", "4", "--m-min", "1",
                               "--m-max", "2"])
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert rows[0].startswith("     1  error: m = 1:")
        assert rows[1].split()[2:] == ["1", "1"] + ["trivial"] * 3

    def test_columns(self):
        code, out, _ = answer(["sweep", "--n", "4", "--m-min", "2",
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
    def test_stdout_digest(self, line):
        code, out, err = answer(line.split())
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == \
            pins.SWEEP_DIGESTS[line]


def _cache_text(records, code=CODE):
    """A result cache file of ``records``, each (digest, key, output)."""
    return f"cycloclass-cache {code}\n" + "".join(
        f"{digest} {len(key)} {len(output)}\n{key}{output}\n"
        for digest, key, output in records)


def _cache_records(path):
    """The first line and the records (digest, key, output) of a result
    cache file, failing the test unless the file is whole."""
    text = Path(path).read_bytes().decode("utf-8")
    header, _, text = text.partition("\n")
    records = []
    while text:
        line, _, text = text.partition("\n")
        digest, key_length, output_length = line.split(" ")
        key, output = int(key_length), int(output_length)
        assert text[key + output] == "\n"
        records.append((digest, text[:key], text[key:key + output]))
        text = text[key + output + 1:]
    return header, records


def _outputs(path):
    return sorted(output for _, _, output in _cache_records(path)[1])


class TestCache:
    def test_identical_bytes_with_and_without_cache(self, tmp_path):
        cache_file = tmp_path / "cache.json"
        args = ["classify", "--n", "4", "--m", "29", "--format", "json"]
        code1, out1, _ = answer(args)
        code2, out2, _ = answer(args + ["--cache", str(cache_file)])
        code3, out3, _ = answer(args + ["--cache", str(cache_file)])
        assert code1 == code2 == code3 == 0
        assert out1 == out2 == out3
        header, records = _cache_records(cache_file)
        assert header == f"cycloclass-cache {CODE}"
        assert [(digest, output + "\n") for digest, _, output in records] \
            == [(_digest(out1[:-1]), out1)]

    def test_version_mismatch_invalidates(self, tmp_path):
        # a record that this code would replay, under the first line of the
        # schema-3 cache, which numbered its format before the code digest
        cache_file = tmp_path / "cache.json"
        cache_file.write_text(_cache_text(
            [(_digest("stale"), KEY_58, "stale")]).replace(
                "cycloclass-cache ", "cycloclass-cache 3 ", 1))
        code, out, _ = answer(["cbound", "--m", "58",
                               "--cache", str(cache_file)])
        assert code == 0 and out.strip() == "565"
        assert _outputs(cache_file) == ["565"]

    def test_env_var_default(self, tmp_path, monkeypatch):
        cache_file = tmp_path / "env-cache.json"
        monkeypatch.setenv("CYCLOCLASS_CACHE", str(cache_file))
        code, out, _ = answer(["cbound", "--m", "26"])
        assert code == 0 and out.strip() == "5"
        assert cache_file.exists()

    def test_text_and_json_cached_separately(self, tmp_path):
        cache_file = tmp_path / "cache.json"
        base = ["vtilde", "--m", "21", "--cache", str(cache_file)]
        _, text_out, _ = answer(base)
        _, json_out, _ = answer(base + ["--format", "json"])
        assert text_out.strip() == "Z/4"
        assert json.loads(json_out)["invariant_factors"] == [4]

    # JSON documents of every shape, the result cache of schema 1 and 2
    # among them, count as empty
    @pytest.mark.parametrize("content", [
        "[]",
        '"x"',
        "7",
        "null",
        json.dumps({"schema": 1, "tool_version": __version__, "entries": []}),
        json.dumps({"schema": 1, "tool_version": __version__,
                    "entries": {"k": 5}}),
        json.dumps({"schema": 2, "tool_version": __version__,
                    "entries": []}),
        # the code digest changes with every edit of the package, so these
        # parameters carry fixed ids
        pytest.param(json.dumps({"schema": 2,
                                 "code_sha256": CODE, "entries": []}),
                     id="current-code-entries-list"),
        pytest.param(json.dumps({"schema": 2,
                                 "code_sha256": CODE, "entries": {"k": 5}}),
                     id="current-code-entry-int"),
        pytest.param(json.dumps({"schema": 2,
                                 "code_sha256": CODE,
                                 "entries": {"k": "565"}}),
                     id="current-code-entry-str"),
        pytest.param(json.dumps({"schema": 2,
                                 "code_sha256": CODE,
                                 "entries": {"k": {"output": "565"}}}),
                     id="current-code-entry-without-digest"),
        pytest.param("[" * 100000 + "]" * 100000, id="nested-100000-deep"),
    ])
    def test_wrong_shape_treated_as_empty(self, tmp_path, content):
        cache_file = tmp_path / "cache.json"
        cache_file.write_text(content)
        code, out, err = answer(["cbound", "--m", "58",
                                 "--cache", str(cache_file)])
        assert code == 0 and out.strip() == "565" and err == ""
        assert _outputs(cache_file) == ["565"]

    @pytest.mark.parametrize("output", [
        pytest.param("999", id="other-output"),
        # no UTF-8 form: the file does not decode and counts as empty
        pytest.param("\ud800", id="lone-surrogate"),
    ])
    def test_tampered_entry_is_recomputed(self, tmp_path, output):
        cache_file = tmp_path / "cache.json"
        args = ["hminus", "--m", "39", "--cache", str(cache_file)]
        assert answer(args)[:2] == (0, "2\n")
        _, [(digest, key, _)] = _cache_records(cache_file)
        cache_file.write_text(_cache_text([(digest, key, output)]),
                              errors="surrogatepass")
        code, out, err = answer(args)
        assert code == 0 and out == "2\n" and err == ""
        assert _outputs(cache_file) == ["2"]


def _parent_cache_file():
    """The JSON file the schema-2 cache wrote for ``hminus --m 39``, its
    answer replaced by 999 under a matching SHA-256."""
    key = json.dumps({"command": "hminus", "format": "text", "m": 39})
    return json.dumps({"code_sha256": hashlib.sha256(b"code").hexdigest(),
                       "entries": {key: {
                           "output": "999",
                           "sha256": hashlib.sha256(b"999").hexdigest()}},
                       "schema": 2}, sort_keys=True).encode()


#: a whole cache of ``hminus --m 39`` that replays a wrong answer, so that
#: only a file read as empty answers 2
_WRONG_39 = _cache_text([(_digest("999"), KEY_39, "999")]).encode()
_RECORD_39 = _WRONG_39.split(b"\n", 1)[1]


@pytest.mark.parametrize("content", [
    pytest.param(_WRONG_39 + _RECORD_39[:100], id="truncated-record"),
    pytest.param(_WRONG_39[:-1], id="no-final-newline"),
    pytest.param(_WRONG_39 + b"x", id="trailing-text"),
    pytest.param(_WRONG_39 + b"\n", id="trailing-newline"),
    pytest.param(_WRONG_39.replace(b" 54 3\n", b" 54 30\n"),
                 id="length-past-the-end"),
    pytest.param(_WRONG_39.replace(b" 54 3\n", b" 54 -3\n"),
                 id="negative-length"),
    pytest.param(_WRONG_39.replace(b" 54 3\n", b" +54 3\n"), id="plus-sign"),
    pytest.param(_WRONG_39.replace(b" 54 3\n", b" 5_4 3\n"),
                 id="underscore"),
    pytest.param(_WRONG_39.replace(b" 54 3\n", " ٥٤ 3\n".encode()),
                 id="arabic-indic-digits"),
    pytest.param(_WRONG_39.replace(b" 54 3\n", b"  54 3\n"),
                 id="two-spaces"),
    pytest.param(_WRONG_39.replace(b" 54 3\n", b" 54 3 0\n"),
                 id="three-lengths"),
    pytest.param(_WRONG_39.replace(b"\n", b"\r\n"), id="crlf"),
    pytest.param(b"\xef\xbb\xbf" + _WRONG_39, id="byte-order-mark"),
    pytest.param(_WRONG_39.replace(b"cache ", b"cache 2 ", 1),
                 id="schema-2-first-line"),
    pytest.param(_WRONG_39.replace(b"cache ", b"cache 3 ", 1),
                 id="schema-3-first-line"),
    pytest.param(_WRONG_39 + _RECORD_39.replace(b"999", b"\xff99"),
                 id="invalid-utf-8"),
    pytest.param(_parent_cache_file(), id="parent-schema-2-json"),
    pytest.param(b"cycloclass-cache " + b"0" * (1 << 20),
                 id="1-mb-first-line"),
])
def test_malformed_cache_file_answers_as_empty(tmp_path, content):
    # each in a process of its own and a bounded time: a parser that
    # loops, or replays the 999 of a record it should not have read,
    # fails it; the next entry replaces the file
    cache_file = tmp_path / "cache.json"
    cache_file.write_bytes(content)
    proc = _run_cli(["--cache", str(cache_file), "hminus", "--m", "39"],
                    timeout=5)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "2\n", "")
    assert _cache_records(cache_file) == \
        (f"cycloclass-cache {CODE}", [(_digest("2"), KEY_39, "2")])


def test_interrupted_rewrite_leaves_only_the_old_cache(tmp_path,
                                                       monkeypatch):
    cache_file = tmp_path / "cache.json"
    answer(["--cache", str(cache_file), "hminus", "--m", "39"])
    before = cache_file.read_bytes()

    def interrupt(source, target):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", interrupt)
    with pytest.raises(KeyboardInterrupt):
        answer(["--cache", str(cache_file), "hminus", "--m", "7"])
    assert os.listdir(tmp_path) == ["cache.json"]
    assert cache_file.read_bytes() == before


@pytest.mark.parametrize("target", ["directory", "missing/cache.json"])
def test_unwritable_cache_costs_only_the_reuse(tmp_path, target):
    (tmp_path / "directory").mkdir()
    plain = _run_cli(["hminus", "--m", "39"], timeout=30)
    argv = ["--cache", str(tmp_path / target), "hminus", "--m", "39"]
    proc = _run_cli(argv, timeout=30)
    assert proc.returncode == 0 and proc.stdout == plain.stdout == "2\n"
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("cache not written: ")
    assert list((tmp_path / "directory").iterdir()) == []
    # on one pipe the warning comes before the answer
    merged = _run_cli(argv, timeout=30, stderr=subprocess.STDOUT).stdout
    warning, answered = merged.splitlines()
    assert warning.startswith("cache not written: ") and answered == "2"


def _one_gigabyte_of_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("target", ["fifo", "/dev/zero"])
def test_cache_that_is_no_regular_file_is_neither_read_nor_replaced(
        tmp_path, target):
    # a FIFO blocks a read until a writer comes, /dev/zero never ends one:
    # the query answers, under 1 GB of address space and a timeout
    path = tmp_path / "cache.json"
    if target == "fifo":
        os.mkfifo(path)
    else:
        path = Path(target)
    before = os.stat(path)
    proc = subprocess.run(
        [sys.executable, "-m", "cycloclass.cli", "--cache", str(path),
         "hminus", "--m", "39"], capture_output=True, text=True, timeout=10,
        env=child_env(), preexec_fn=_one_gigabyte_of_address_space)
    assert proc.returncode == 0 and proc.stdout == "2\n"
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("cache not written: ")
    after = os.stat(path)
    assert (after.st_ino, after.st_mode, after.st_size, after.st_rdev) == \
        (before.st_ino, before.st_mode, before.st_size, before.st_rdev)


def test_cache_grown_above_the_ceiling_still_takes_entries(tmp_path,
                                                          monkeypatch):
    # a cache written past the ceiling is not read but replaced: the next
    # query starts it afresh and the one after adds to it
    path = tmp_path / "cache.json"
    for m in (39, 7, 11):
        answer(["--cache", str(path), "hminus", "--m", str(m)])
    monkeypatch.setattr(cycloclass.cli, "CACHE_BYTES_CEILING",
                        path.stat().st_size - 1)
    for m, h, outputs in ((3, "1", ["1"]), (23, "3", ["1", "3"])):
        assert answer(["--cache", str(path), "hminus", "--m", str(m)]) == \
            (0, h + "\n", "")
        assert _outputs(path) == outputs


def test_cache_of_other_code_is_not_replayed(tmp_path):
    package = tmp_path / "copy" / "cycloclass"
    shutil.copytree(os.path.dirname(cycloclass.__file__), package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cache_file = tmp_path / "cache.json"
    env = child_env(package.parent)

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
    header, [(_, key, _)] = _cache_records(cache_file)
    cache_file.write_text(_cache_text([(_digest("999"), key, "999")],
                                      code=header.rsplit(" ", 1)[1]))
    assert hminus_39() == "999\n"

    source = package / "arith.py"
    source.write_text(source.read_text().replace(
        "#: trial division stops at this bound",
        "#: trial division stops at this bound, 2^16", 1))
    assert hminus_39() == "2\n"
    assert _cache_records(cache_file)[0] != header


def _run_cli(argv, timeout, stderr=subprocess.PIPE):
    return subprocess.run([sys.executable, "-m", "cycloclass.cli", *argv],
                          stdout=subprocess.PIPE, stderr=stderr, text=True,
                          timeout=timeout, env=child_env())


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


class TestDeepAboveTheHminusCeiling:
    """A deep query refuses only when the branch it takes reads h^- above
    HMINUS_PHI_CEILING."""

    def test_am_reads_no_class_number_at_a_power_of_two(self):
        out, err, code = pins.QUERIES["am --m 8192"]
        assert answer(["am", "--m", "8192"]) == (code, out, err)
        assert (code, err) == (0, "") and out.startswith("unknown: ")

    @pytest.mark.parametrize("argv", [
        ["classify", "--n", "4", "--m", "6561", "--deep"],
        ["verify", "--n", "4", "--m", "8192"]])
    def test_branches_below_the_ceiling_answer(self, argv):
        code, out, err = answer(argv)
        assert code == 0 and out and err == ""

    @pytest.mark.parametrize("m", ["4003", "24389"])
    def test_branches_reading_hminus_above_it_refuse(self, m):
        # 24389 = 29^3: h is even, so the class parts are read
        code, out, err = answer(["classify", "--n", "4", "--m", m,
                                 "--deep"])
        assert code == 2 and out == ""
        assert f"is above {HMINUS_PHI_CEILING}" in err


class TestPinnedAnswers:
    """The answers of ``pins.QUERIES`` at 130, 65, 15 and 21, through
    ``answer``."""

    @staticmethod
    def pinned(line):
        out, err, code = pins.QUERIES[line]
        return code, out, err

    def test_classify_deep_130(self):
        line = "classify --n 4 --m 130 --deep"
        assert answer(line.split()) == self.pinned(line)

    def test_verify_65(self):
        line = "verify --n 4 --m 65"
        assert answer(line.split()) == self.pinned(line)

    # the kernel groups at 15 (trivial action) and 21 (negation) are the
    # only stored facts whose J, I and Tate group are not all 0
    @pytest.mark.parametrize("m,expected", [
        (m, pins.QUERIES[f"classify --n 4 --m {m} --deep --format json"][0])
        for m in (15, 21)])
    def test_classify_deep_json(self, m, expected):
        line = f"classify --n 4 --m {m} --deep --format json"
        assert answer(line.split()) == (0, expected, "")
        assert self.pinned(line) == (0, expected, "")


#: 2^10 3^6 5^4 7^3 11^2 13^2 17 19 23 29 31 37 41 43, with 3,548,160
#: divisors
_MANY_DIVISORS = 1425665971340537072065920000
#: the products of the first 16 and of the first 17 primes
_PRIMORIAL_16 = 32589158477190044730
_PRIMORIAL_17 = 1922760350154212639070


def _no_divisors(n):
    raise AssertionError(f"the divisors of {n} were listed")


def test_many_divisors_are_counted_not_listed(monkeypatch):
    monkeypatch.setattr(ktheory, "divisors", _no_divisors)
    code, out, err = answer(["classify", "--n", "4", "--m",
                             str(_MANY_DIVISORS), "--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["ingredients"]["free_rank"] == \
        _MANY_DIVISORS // 2 + 1 - 3548160


@pytest.mark.parametrize("argv", [
    ["classify", "--n", "4"], ["classify", "--n", "4", "--deep"],
    ["verify", "--n", "4"]])
def test_square_free_modulus_past_the_divisor_ceiling_fails_fast(
        monkeypatch, argv):
    # 17 primes, 2^17 divisors: refused before any divisor is listed
    monkeypatch.setattr(ktheory, "divisors", _no_divisors)
    start = time.perf_counter()
    code, out, err = answer([*argv, "--m", str(_PRIMORIAL_17)])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (f"out of scope: m = {_PRIMORIAL_17} is square-free with "
                   "131072 divisors; the class parts of more than 65536 "
                   "divisors are not listed\n")


def test_sweep_past_the_divisor_ceiling_is_an_error_row():
    code, out, _ = answer(["sweep", "--n", "4", "--m-min",
                           str(_PRIMORIAL_17), "--m-max",
                           str(_PRIMORIAL_17)])
    assert code == 0
    assert out.splitlines()[1] == (f"{_PRIMORIAL_17}  error: m = "
                                   f"{_PRIMORIAL_17} is square-free with "
                                   "131072 divisors; the class parts of more "
                                   "than 65536 divisors are not listed")


def test_square_free_modulus_at_the_divisor_ceiling_answers():
    code, out, err = answer(["classify", "--n", "4", "--m",
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


# The rules below of the process around the CLI are cases of the corpus's
# process group, which runs their children, each once in the session and
# under its deadline, whichever test reads them first: each test here
# reads one or more cases and starts no child of its own.

def _process(condition, line):
    """(exit code, stdout, stderr) of the process case (condition, line),
    which its replay must give byte for byte."""
    replayed, pinned = pins.process_case((condition, line))
    assert replayed == pinned
    return replayed


def test_interrupt_exits_130_without_a_traceback():
    # the text sweep to 3000 takes tens of seconds; SIGINT after 1 s ends it
    code, out, err = _process("SIGINT after 1 s",
                              "sweep --n 4 --m-min 2 --m-max 3000")
    assert code == 130 and "Traceback" not in err


def test_cli_families_run_without_sympy():
    # sympy is the tests' oracle: no query imports it.  The code asserts
    # that every family exits 0
    code, modules, _ = _process("modules loaded by", pins.FAMILIES)
    assert code == 0 and "sympy" not in modules.split()


@pytest.mark.parametrize("argv", [["classify", "--n", "4"], ["cbound"],
                                  ["am"], ["vtilde"]])
def test_primality_above_2_64_without_sympy(argv):
    # the prime 2^64 + 13 takes the thirteen-base strong test; with sympy
    # blocked the answer keeps the bytes and the exit code of the corpus
    line = " ".join([*argv, "--m", str(pins.ABOVE_2_64)])
    out, err, code = pins.QUERIES[line]
    assert _process("without sympy", line) == (code, out, err)


@pytest.mark.parametrize("exponent", [30, 40])
def test_classify_large_power_of_two(exponent):
    # the kernel-group ladder at 2^e has order 2^(2^(e-1) - 1 - e(e-1)/2);
    # only its exponent is built
    code, out, _ = _process("", f"classify --n 4 --m {2 ** exponent}")
    assert code == 0
    assert "homotopy types modulo s.h.e. and h-cobordism:  finite" in out


@pytest.mark.parametrize("argv", [
    ["hminus", "--m", "39"],
    ["--format", "json", "sweep", "--n", "4", "--m-min", "2",
     "--m-max", "400"]])
def test_reader_that_closes_stdout_early(argv):
    # the read end is closed before the child writes a byte: the output
    # ends there, with exit code 0 and nothing on stderr
    code, _, err = _process("| closed by its reader", " ".join(argv))
    assert code == 0 and err == ""


def test_reader_to_the_end_gets_every_byte():
    # main ends the process with os._exit, which flushes nothing: an
    # answer of 282 KB, written in one piece, still reaches the pipe whole
    line = "--format json sweep --n 4 --m-min 2 --m-max 2000"
    assert _process("| sha256sum", line) == (0, pins.SWEEP_DIGESTS[line], "")


@pytest.mark.parametrize("closed", ["by-its-reader", "at-start"])
@pytest.mark.parametrize("argv,code,stdout", [
    (["hminus"], 1, b""), (["classify", "--n", "5", "--m", "3"], 2, b""),
    (["hminus", "--m", "39"], 0, b"2\n")])
def test_closed_stderr_keeps_the_exit_code(closed, argv, code, stdout):
    # closed by its reader before the child writes, or as fd 2 (2>&-)
    condition = {"by-its-reader": "2| closed by its reader",
                 "at-start": "2>&-"}[closed]
    assert _process(condition, " ".join(argv)) == \
        (code, stdout.decode(), None)


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("redirect, argv, code, prefix", [
    ("> /dev/full", ["hminus", "--m", "39"], 1, "output not written: "),
    ("> /dev/full", ["classify", "--n", "5", "--m", "3"], 2,
     "out of scope: "),
    (">&-", ["hminus", "--m", "39"], 1, "output not written: ")])
def test_undelivered_answer_exits_1_without_a_traceback(
        redirect, argv, code, prefix, unbuffered):
    # every write to /dev/full fails, even an empty one: buffered in the
    # flush, unbuffered (python -u) in the write.  A scope error has no
    # stdout text to write and keeps its code.  With fd 1 closed at start,
    # sys.stdout is None
    condition = ("unbuffered " if unbuffered else "") + redirect
    replayed_code, _, err = _process(condition, " ".join(argv))
    assert replayed_code == code and err.startswith(prefix)
    assert "Traceback" not in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no digit limit")
@pytest.mark.parametrize("argv", [["a2k", "--k", "2"], ["vtilde"],
                                  ["hminus"]])
def test_modulus_past_the_digit_limit_is_a_usage_error(argv):
    # the argv is parsed under the limit of 4300 digits, which only the
    # computation lifts: a2k would otherwise set out to factor m
    m = pins.SEVENS
    assert _process("", " ".join([*argv, "--m", m])) == \
        (1, "", f"usage error: argument --m: invalid int value: '{m}'\n")


@pytest.mark.parametrize("argv", [
    ["classify", "--n", "4"], ["am"], ["verify", "--n", "4"], ["vtilde"],
    ["cbound"], ["a2k", "--k", "2"]])
def test_unfactored_modulus_fails_fast(argv):
    # each child waits out the rho budget within its 10 s deadline
    m = pins.UNFACTORED
    code, out, err = _process("", " ".join([*argv, "--m", str(m)]))
    assert code == 2 and out == ""
    assert f"cannot factor {m}" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["cbound", "--m", "2000000014"], ["vtilde", "--m", "2000000014"],
    ["vtilde", "--m", "20000006"]])
def test_huge_torus_fails_fast(argv):
    # the order of 2 mod 1000000007 is 500000003: the torus at 2 would
    # have half a billion bits
    code, out, err = _process("", " ".join(argv))
    assert code == 2 and out == ""
    assert "norm-one torus" in err and "Traceback" not in err


def test_tori_near_the_ceiling_answer_fast():
    # 34747 * 34757: two tori of about 2^18 bits each, whose orders no
    # Smith normal form may take as entries; the case pins the SHA-256 of
    # the whole stdout, within the 10 s deadline
    code, _, err = _process("| sha256sum", "vtilde --m 1207701479")
    assert code == 0 and err == ""


def test_only_a_stdout_failure_counts_as_undelivered(tmp_path, capsys,
                                                      monkeypatch):
    # an OSError of the query itself propagates, and so gives its traceback,
    # with no "output not written" line
    def unreadable_package():
        raise PermissionError("the package cannot be read")

    monkeypatch.setattr(cycloclass.cli, "_code_digest", unreadable_package)
    with pytest.raises(PermissionError):
        run(["--cache", str(tmp_path / "cache.json"), "hminus", "--m", "39"])
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("at", ["write", "flush"])
@pytest.mark.parametrize("failure, code, stderr", [
    (BrokenPipeError(32, "Broken pipe"), 0, ""),
    (OSError(28, "No space left on device"), 1,
     "output not written: [Errno 28] No space left on device\n")])
def test_run_returns_the_code_of_an_undelivered_answer(capsys, monkeypatch,
                                                       at, failure, code,
                                                       stderr):
    # a reader that has gone gets exit code 0, any other failure of the
    # stdout write or flush 1 and one stderr line
    class Stdout:
        def write(self, text):
            if at == "write":
                raise failure

        def flush(self):
            raise failure

    monkeypatch.setattr(sys, "stdout", Stdout())
    assert run(["hminus", "--m", "39"]) == code
    assert capsys.readouterr().err == stderr


def test_run_without_stdout_runs_no_query(capsys, monkeypatch):
    # fd 1 closed at start leaves sys.stdout None
    def query(argv):
        raise AssertionError(f"a query ran: {argv}")

    monkeypatch.setattr(cycloclass.cli, "answer", query)
    monkeypatch.setattr(sys, "stdout", None)
    assert run(["hminus", "--m", "39"]) == 1
    assert capsys.readouterr().err == "output not written: stdout is closed\n"


@pytest.mark.parametrize("line", [
    "hminus --m 39", "--help", "hminus --help", "hminus --form json --m 39",
    "hminus --m=39", "hminus", "hminus --m x", "frobnicate", "vtilde --m 105"])
def test_answer_writes_nothing_and_run_writes_it(capsys, line):
    argv = line.split()
    code, out, err = answer(argv)
    assert capsys.readouterr() == ("", "")
    assert run(argv) == code and type(code) is int
    assert capsys.readouterr() == (out, err)


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
    code, _, err = answer(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err, argv


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


@pytest.mark.parametrize("argv", pins.ARGPARSE,
                         ids=lambda argv: " ".join(argv) or "-")
def test_help_and_usage_errors_keep_their_bytes(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert answer(list(argv)) == pins.ARGPARSE[argv]


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
    """Any text, any JSON, or a text that is mostly a cache of the current
    code holding ``hminus --m 39``, with any part of it replaced by
    something else or left out, and maybe cut short."""
    kind = draw(st.sampled_from(["text", "json", "cache"]))
    if kind == "text":
        return draw(_ANY_TEXT)
    if kind == "json":
        return json.dumps(draw(_JSON))

    def mostly(valid, other):
        """``valid`` three times in four, else a draw from ``other``."""
        return valid if draw(st.integers(0, 3)) else draw(other)

    def record(key):
        output = draw(st.one_of(st.just("2"), _ANY_TEXT))
        lengths = st.one_of(st.integers(-2, 60).map(str), _ANY_TEXT)
        line = (f"{mostly(_digest('2'), _ANY_TEXT)} "
                f"{mostly(str(len(key)), lengths)} "
                f"{mostly(str(len(output)), lengths)}\n")
        return mostly(line, _ANY_TEXT) + key + output + mostly("\n", _ANY_TEXT)

    records = [record(draw(_ANY_TEXT))
               for _ in range(draw(st.integers(0, 2)))]
    if draw(st.integers(0, 3)):
        records.insert(draw(st.integers(0, len(records))), record(KEY_39))
    text = mostly(f"cycloclass-cache {CODE}\n",
                  _ANY_TEXT) + "".join(records)
    return text if draw(st.integers(0, 7)) else \
        text[:draw(st.integers(0, len(text)))]


@settings(max_examples=200, deadline=None)
@given(_cache_file())
def test_exit_code_contract_for_any_cache_file(content):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "cache.json")
        with open(path, "w", encoding="utf-8",
                  errors="surrogatepass") as handle:
            handle.write(content)
        assert answer(["--cache", path, "hminus", "--m", "39"]) == \
            (0, "2\n", "")
