import pytest

import oracles
from cycloclass.ktheory import ScopeError, squarefree
from cycloclass.manifoldset import (
    MHCOB_TRIVIAL,
    MHS_TRIVIAL,
    a2k_order,
    classify,
    sweep,
    verify,
)
from cycloclass.residue import UnsupportedModulusError


class TestA2kOrder:
    def test_m2(self):
        for k in (1, 2, 3, 7):
            assert a2k_order(k, 2) == 4

    def test_k2_m5(self):
        assert a2k_order(2, 5) == 40

    def test_k3_m7(self):
        assert a2k_order(3, 7) == 84

    def test_strictly_below_2m_squared(self):
        for k in (2, 3, 4):
            for m in range(2, 101):
                assert a2k_order(k, m) < 2 * m * m

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
