
import pytest

import oracles
from cycloclass import arith, classnumber, ktheory, manifoldset, residue
from cycloclass.arith import UnsupportedModulusError
from cycloclass.ktheory import ScopeError, squarefree
from cycloclass.manifoldset import (
    MHCOB_TRIVIAL,
    MHS_TRIVIAL,
    a2k_order,
    classify,
    sweep,
    verify,
)


class TestA2kOrder:
    def test_m2(self):
        for k in (1, 2, 3, 7):
            assert a2k_order(k, 2) == 4

    def test_k2_m5(self):
        assert a2k_order(2, 5) == 40

    def test_k3_m7(self):
        assert a2k_order(3, 7) == 84

    def test_strictly_below_2m_squared(self):
        # 2m #{c : c^k = +-1} <= 2m phi(m) < 2m^2: the bound check of
        # verify is definitional
        for k in range(1, 17):
            for m in range(2, 1001):
                assert a2k_order(k, m) < 2 * m * m, (k, m)

    def test_matches_loop_oracle(self):
        for k in range(1, 13):
            for m in range(2, 600):
                assert a2k_order(k, m) == oracles.loop_a2k_order(k, m), (k, m)

    def test_large_modulus(self):
        assert a2k_order(2, 10 ** 8) == 1_600_000_000


class TestClassify:
    def test_scope(self):
        with pytest.raises(ScopeError):
            classify(5, 3)
        with pytest.raises(ScopeError):
            classify(2, 3)
        with pytest.raises(ScopeError):
            classify(4, 1)

    def test_non_squarefree_infinite(self):
        r = classify(4, 4)
        assert r.mhs.verdict == "infinite"
        assert r.mhcob.verdict == "infinite"
        assert r.mhs_hcob.verdict in ("trivial", "finite")

    def test_m15(self):
        r = classify(6, 15)
        assert r.mhs.verdict == "finite" and r.mhs.lower >= 2
        assert r.mhcob.verdict == "trivial"
        # the quotient group has order two here, so the third set is
        # nontrivial with exactly two elements
        assert r.mhs_hcob.verdict == "finite"
        assert (r.mhs_hcob.lower, r.mhs_hcob.upper) == (2, 2)

    def test_m29(self):
        r = classify(4, 29)
        assert r.mhs.verdict == "finite"
        assert r.mhs.lower == 2 and r.mhs.upper == 8
        assert r.mhcob.verdict == "trivial"
        assert r.mhs_hcob.verdict == "finite" and r.mhs_hcob.upper == 8

    def test_verdicts_independent_of_n(self):
        for m in (4, 15, 21, 23, 29, 30):
            r4, r6, r8 = classify(4, m), classify(6, m), classify(8, m)
            assert r4.mhs.verdict == r6.mhs.verdict == r8.mhs.verdict
            assert r4.mhcob.verdict == r6.mhcob.verdict == r8.mhcob.verdict

    def test_triviality_cascades(self):
        # a single simple homotopy type forces the refinements to collapse
        for m in range(2, 101):
            for n in (4, 6, 8):
                r = classify(n, m)
                if r.mhs.verdict == "trivial":
                    assert r.mhcob.verdict == "trivial"
                    assert r.mhs_hcob.verdict == "trivial"

    def test_bounds_sane(self):
        for m in range(2, 101):
            r = classify(4, m)
            for v in (r.mhs, r.mhcob, r.mhs_hcob):
                if v.lower is not None:
                    assert v.lower >= 1
                    if v.upper is not None:
                        assert v.lower <= v.upper

    def test_deep_mode_verifies(self):
        r = classify(4, 29, deep=True)
        assert r.provenance == "ingredient-verified"


class TestSweep:
    def test_list_a(self):
        reports = sweep(4, range(2, 21))
        assert len(reports) == 19
        trivial = {r.m for r in reports if r.mhs.verdict == "trivial"}
        assert trivial == {2, 3, 5, 6, 7, 10, 11, 13, 14, 17, 19}

    def test_empty(self):
        assert sweep(4, []) == []

    def test_degree_out_of_scope_raises_before_any_m(self):
        for n, m_values in ((3, []), (2, range(2, 5)), (-2, [7])):
            with pytest.raises(ScopeError,
                               match=f"^n = {n}: only even n >= 4"):
                sweep(n, m_values)

    def test_unsupported_modulus_is_an_entry(self):
        # the deep pass needs hminus(4003) at phi = 4002, above the ceiling
        [(m, err)] = sweep(4, [4003], deep=True)
        assert m == 4003 and isinstance(err, UnsupportedModulusError)
        assert "phi(m) = 4002 is above 4000" in str(err)

    def test_list_d(self):
        reports = sweep(6, range(2, 31))
        trivial = {r.m for r in reports if r.mhcob.verdict == "trivial"}
        assert trivial == {2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 29}

    def test_full_hundred(self):
        for n in (4, 6, 8):
            reports = sweep(n, range(2, 101))
            trivial1 = {r.m for r in reports if r.mhs.verdict == "trivial"}
            trivial2 = {r.m for r in reports if r.mhcob.verdict == "trivial"}
            infinite1 = {r.m for r in reports if r.mhs.verdict == "infinite"}
            infinite2 = {r.m for r in reports if r.mhcob.verdict == "infinite"}
            assert trivial1 == set(MHS_TRIVIAL)
            assert trivial2 == set(MHCOB_TRIVIAL)
            expected_infinite = {m for m in range(2, 101) if not squarefree(m)}
            assert infinite1 == expected_infinite
            assert infinite2 == expected_infinite
            assert all(r.mhs_hcob.verdict in ("trivial", "finite")
                       for r in reports)


class TestVerify:
    def test_m19(self):
        record = verify(4, 19)
        assert record.consistent
        details = {dict(c)["name"]: dict(c) for c in record.checks}
        assert "set1-trivial-support" in details
        assert details["set1-trivial-support"]["status"] == "confirmed"

    def test_m23_witness(self):
        record = verify(4, 23)
        assert record.consistent
        details = {dict(c)["name"]: dict(c) for c in record.checks}
        assert details["set1-nontrivial-witness"]["status"] == "confirmed"
        assert "odd(h^-) = 3" in details["set1-nontrivial-witness"]["detail"]

    def test_m4_squarefree_channel(self):
        record = verify(4, 4)
        assert record.consistent
        names = {dict(c)["name"] for c in record.checks}
        assert "set1-set2-infinite" in names

    def test_all_small_consistent(self):
        for n in (4, 6):
            for m in range(2, 61):
                assert verify(n, m).consistent, (n, m)


def _counting(monkeypatch, name, *modules):
    """Replace ``name`` in each module by one wrapper; returns its calls."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


class TestOncePerQuery:
    def test_deep_classify_describes_m_once(self, monkeypatch):
        oracles.clear_caches()
        bounds = _counting(monkeypatch, "d_divisibility_bound", ktheory)
        report = classify(4, 33, deep=True)
        assert report.provenance == "ingredient-verified"
        assert manifoldset._described.cache_info().misses == 1
        # both the difference-set witness and the I witness read it
        assert report.ingredients.j_group.status == "bound"
        assert bounds == [(33,)]

    def test_degrees_share_the_ingredients(self):
        oracles.clear_caches()
        for n in (4, 6, 8):
            assert classify(n, 33, deep=True).ingredients.n == n
            verify(n, 33)
        assert manifoldset._described.cache_info().misses == 1

    def test_later_degrees_rerun_no_degree_free_check(self, monkeypatch):
        oracles.clear_caches()
        classify(4, 33, deep=True)
        calls = [_counting(monkeypatch, name,
                           *(module for module in (ktheory, manifoldset,
                                                   residue)
                             if hasattr(module, name)))
                 for name in ("d_divisibility_bound", "vtilde", "c_bound")]
        reads = _counting(monkeypatch, "modulus", ktheory, manifoldset)
        factorings = _counting(monkeypatch, "factorint", arith)
        assert verify(6, 33).n == 6
        assert classify(8, 33, deep=True).provenance == "ingredient-verified"
        assert calls == [[], [], []]
        # a2k_order reads the record of m once per call, factored by the
        # first query; squarefree is not read again
        assert reads == [(33,), (33,)] and factorings == []

    def test_paper_tables_factor_each_argument_once(self, monkeypatch):
        # the paper's tables from empty caches: each m, p - 1 and phi(n)
        # that a layer reads is factored once, by arith.modulus, where the
        # layers factoring for themselves made 2,060 calls on 187
        # arguments (lambda(121) = 110, factored only for the CRT primes,
        # is no longer one)
        oracles.clear_caches()
        factorings = _counting(monkeypatch, "factorint", arith)
        moduli = [2 * p for p in (11, 13, 17, 19, 29)] + [
            p * q for p, q in ((3, 5), (3, 7), (3, 11), (5, 7), (3, 13))]
        for m in [*moduli, 30]:
            residue.c_bound(m)
        residue.vtilde(21)
        for m in range(2, 201):
            classnumber.hminus(m)
        for n in (4, 6, 8):
            sweep(n, range(2, 101), deep=True)
        for n in (4, 6, 8):
            for m in range(2, 61):
                verify(n, m)
        assert len(factorings) == len(set(factorings)) == 186

    def test_paper_tables_bound_the_kernel_channel_once_per_modulus(
            self, monkeypatch):
        # the deep sweeps and verify from empty caches: the difference-set
        # witness of the fields and the I witness of the checks share one
        # kernel-group channel at each square-free m
        oracles.clear_caches()
        bounds = _counting(monkeypatch, "d_divisibility_bound", ktheory)
        for n in (4, 6, 8):
            sweep(n, range(2, 101), deep=True)
        for n in (4, 6, 8):
            for m in range(2, 61):
                verify(n, m)
        assert len(bounds) == len(set(bounds)) == 60


ORDERS = {
    "ascending": [(kind, n) for n in (4, 6, 8, 10)
                  for kind in ("classify", "verify")],
    "descending": [(kind, n) for n in (10, 8, 6, 4)
                   for kind in ("classify", "verify")],
    "verify first": [(kind, n) for kind in ("verify", "classify")
                     for n in (4, 6, 8, 10)],
}


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_shared_checks_match_the_per_degree_oracle(order):
    # from empty caches, in each order, every degree reads the one
    # description of m and must answer as if it had run every check
    oracles.clear_caches()
    for m in range(2, 301):
        expected = {}
        for kind, n in ORDERS[order]:
            if n not in expected:
                expected[n] = oracles.oracle_verify(n, m)
            if kind == "verify":
                assert verify(n, m) == expected[n], (n, m)
            else:
                provenance = classify(n, m, deep=True).provenance
                assert provenance == ("ingredient-verified"
                                      if expected[n].consistent
                                      else "inconsistent"), (n, m)


@pytest.mark.parametrize("first", ["classify", "oracle"])
def test_shared_verdicts_match_the_per_degree_oracle(first):
    # from empty caches, each m's verdicts are built once and read at
    # every degree; the oracle builds them at each call, and with deep
    # reads the provenance off the whole verify record at (n, m)
    oracles.clear_caches()
    for m in range(2, 301):
        for n in (4, 6, 8, 10):
            for deep in (False, True):
                if first == "classify":
                    report = classify(n, m, deep=deep)
                    expected = oracles.oracle_classify(n, m, deep=deep)
                else:
                    expected = oracles.oracle_classify(n, m, deep=deep)
                    report = classify(n, m, deep=deep)
                assert repr(report) == repr(expected), (n, m, deep)
