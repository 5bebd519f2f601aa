import hashlib
import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from cycloclass import arith, classnumber
from cycloclass.abelian import FinAbGroup
from cycloclass.arith import InternalConsistencyError, \
    UnsupportedModulusError
from cycloclass.classnumber import (
    HMINUS_ONE,
    HMINUS_PHI_CEILING,
    ODD_HMINUS_ONE,
    ODD_HMINUS_ONE_SQUAREFREE,
    hminus,
    hminus_is_one,
    hp_is_odd,
    known_class_group,
    odd_part,
)
from cycloclass.cli import run
from oracles import characters


class TestCharacters:
    def test_counts(self):
        assert len(characters(1)) == 1
        assert len(characters(4)) == 2
        assert len(characters(5)) == 4
        assert len(characters(24)) == 8

    def test_half_odd(self):
        for m in (3, 4, 5, 7, 8, 9, 12, 15, 16, 21, 40):
            chars = characters(m)
            odd = [c for c in chars if c.parity == -1]
            assert len(odd) * 2 == len(chars), m

    def test_principal_only_for_m1(self):
        (chi,) = characters(1)
        assert chi.order == 1
        assert chi.parity == 1

    def test_multiplicativity(self):
        for m in (5, 8, 12, 21):
            for chi in characters(m):
                d = chi.order
                for a in range(1, m):
                    for b in range(1, m):
                        va = oracles.value_exponent(chi, a)
                        vb = oracles.value_exponent(chi, b)
                        vab = oracles.value_exponent(chi, a * b)
                        if va is None or vb is None:
                            assert vab is None
                        else:
                            assert vab == (va + vb) % d

    def test_conductors(self):
        # the nontrivial character mod 8 induced from mod 4 has conductor 4
        chars8 = characters(8)
        conductors = sorted(c.conductor for c in chars8)
        assert conductors == [1, 4, 8, 8]
        for m in (5, 7, 9):
            for c in characters(m):
                if c.order != 1:
                    assert c.conductor == m  # prime-power faithful cases
                    break

    def test_conductor_and_parity_against_search(self):
        for m in range(1, 101):
            for chi in characters(m):
                assert chi.conductor == oracles.search_conductor(chi), chi
                assert chi.parity == oracles.search_parity(chi), chi

    def test_primitive_values_against_lift(self):
        for m in (8, 16, 24, 45, 63, 80, 100):
            for chi in characters(m):
                f = chi.conductor
                for a in range(1, f):
                    assert oracles.primitive_value_exponent(chi, a) == \
                        oracles.lifted_primitive_value_exponent(chi, f, a)


class TestB1:
    def test_mod4(self):
        chi = next(c for c in characters(4) if c.parity == -1)
        assert oracles.b1(chi).rational_value() == Fraction(-1, 2)

    def test_mod3(self):
        chi = next(c for c in characters(3) if c.parity == -1)
        assert oracles.b1(chi).rational_value() == Fraction(-1, 3)

    def test_principal_rejected(self):
        chi = next(c for c in characters(5) if c.order == 1)
        with pytest.raises(ValueError):
            oracles.b1(chi)

    def test_even_character_symmetric_sum(self):
        # for an even character the weighted sum is symmetric under
        # a -> f - a, which the Bernoulli value reflects; the minus class
        # number never consumes these values
        for m in (5, 7, 8):
            for chi in characters(m):
                if chi.parity == 1 and chi.order != 1:
                    v = oracles.b1(chi)
                    assert isinstance(v, oracles.CycNumber)


class TestCycNumber:
    def test_reduction(self):
        # 1 + zeta + zeta^2 = 0 in Q(zeta_3)
        assert oracles.CycNumber(3, [1, 1, 1]).rational_value() == 0

    def test_norm(self):
        # N(1 - zeta_5) = Phi_5(1) = 5
        val = oracles.CycNumber(5, [1, -1])
        assert val.norm() == 5

    def test_rationality(self):
        assert oracles.CycNumber(4, [Fraction(1, 2)]).is_rational()
        assert not oracles.CycNumber(4, [0, 1]).is_rational()


@st.composite
def _level_and_coeffs(draw):
    d = draw(st.integers(1, 60))
    coeffs = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=2 * d + 3))
    return d, coeffs


class TestCyclotomicNorm:
    @settings(max_examples=80, deadline=None)
    @given(_level_and_coeffs())
    @example((1, []))
    @example((7, [0] * 7))
    @example((12, [3] * 12))
    @example((9, [5, -4, 0, 2, 1, -1, 7, 0, 0, 3, -8, 6, 2]))
    @example((60, [10 ** 6] * 61))
    def test_matches_bareiss(self, case):
        d, coeffs = case
        assert oracles.cyclotomic_norm_int(coeffs, d) == \
            oracles.bareiss_cyclotomic_norm(coeffs, d)

    def test_shared_exponent(self):
        # levels dividing a common exponent reuse its primes
        coeffs = [5, -1, 2, 0, 7, 1]
        for d in (2, 3, 6):
            assert oracles.cyclotomic_norm_int(coeffs, d, 12) == \
                oracles.bareiss_cyclotomic_norm(coeffs, d)
        with pytest.raises(ValueError):
            oracles.cyclotomic_norm_int(coeffs, 5, 12)


def _character_orbits(m):
    """(chi, f, sums) per Galois orbit of odd characters, the first
    character of each orbit in ``characters`` order as its representative,
    its orbit marked as its powers."""
    covered, orbits = set(), []
    for chi in characters(m):
        if chi.parity == 1 or chi in covered:
            continue
        d = chi.order
        covered |= {oracles.power(chi, j) for j in range(1, d)
                    if gcd(j, d) == 1}
        orbits.append((chi, *oracles.bernoulli_sums(chi)))
    return orbits


def _canonical(d, values, *others):
    """The Galois relabelling t -> j t, j a unit mod d, of ``values`` that
    is lexicographically least, and ``others`` relabelled by the same j.

    chi^j takes the value zeta^(j t) where chi takes zeta^t, so the members
    of an orbit have the sums of any one of them, relabelled.
    """
    def relabel(row, j):
        out = [0] * d
        for t, value in enumerate(row):
            out[j * t % d] = value
        return tuple(out)

    j = min((j for j in range(1, d) if gcd(j, d) == 1),
            key=lambda j: relabel(values, j))
    return relabel(values, j), *(relabel(row, j) for row in others)


def _fold(d, sums):
    """c_t - c_(t + d/2) for t < d/2, from the c_t for every t < d."""
    return [a - b for a, b in zip(sums, sums[d // 2:])]


def _unfold(d, f, folded):
    """The c_t for every t < d of an odd character of order d and
    conductor f, from its folded sums.

    The character takes each value at phi(f)/d units of [1, f), and
    a -> f - a moves the value zeta^t to zeta^(t + d/2), so
    c_t + c_(t + d/2) = f phi(f)/d: with c_t - c_(t + d/2) that gives both.
    """
    pair = f * oracles.totient(f) // d
    assert all((pair + g) % 2 == 0 for g in folded), (d, f)
    return [(pair + g) // 2 for g in folded] + \
        [(pair - g) // 2 for g in folded]


#: the SHA-256 of h^- near the ceiling, beyond the orbit oracle, as the
#: per-unit evaluation (``oracles.hminus_per_unit``) gives it: the check
#: primes see an algebra slip alike at every prime, so these values catch
#: it; the safe primes, the prime squares and 3, 4 times 1019 and 1999
_CEILING_DIGESTS = {
    1523:
        "dc3b403aee6fa5996d01e336e698289f51d4a8ffe8d642fbf547db229084efc9",
    2999:
        "505934befbd9309dd34ce8b8b8f3b382addcfc0fa723c51346bc5f4cdd0714e5",
    3863:
        "3b2bc7c8a565d99a82ba59aa30b4228d37ab00c9618a7032e76fd48f295a7ac1",
    3947:
        "458d13c79373b8dea0240453daad7ba25458726657da33862f50a3324f25bedb",
    41 ** 2:
        "8fb168a489f69bfc9bedf866b9946a3cb7a8e6c24b43e0c00e6a3a66573df650",
    61 ** 2:
        "8bacbcac1c13b0e8c2d4e094efec4cbed591dacd4b10d7f619126457e1d49bd2",
    3 * 1019:
        "572a7aac3ede4119b9c73e6346e544bbf7ce8ff948f40d2a931b738ccc0af9c1",
    4 * 1019:
        "79d137566229d3cf5174a8614c6291e4f88cb043faf1f78b7093686e15478df3",
    3 * 1999:
        "5c4e60c6f81e39f23813efe88525f31c88f2c718fab23777ea9a72b4887d8217",
    4 * 1999:
        "893ba0d82f64d81203842869d4af4b374ebd6af2306779559d133d11069b41e3",
}


def _assert_orbits_match_the_oracles(m):
    """_odd_orbits(m) against the fold of ``oracles.full_orbits``, orbit by
    orbit, and, unfolded, against the orbits from ``characters`` and the
    walk of ``oracles.odd_orbits``, each orbit in canonical form."""
    folded = classnumber._odd_orbits(m)
    assert folded == [(d, f, _fold(d, sums))
                      for d, f, sums in oracles.full_orbits(m)], m
    new = Counter((d, f, _canonical(d, _unfold(d, f, sums)))
                  for d, f, sums in folded)
    for oracle in (_character_orbits, oracles.odd_orbits):
        old = Counter((chi.order, f, _canonical(chi.order, sums))
                      for chi, f, sums in oracle(m))
        assert new == old, (m, oracle.__name__)


class TestOddOrbits:
    def test_against_characters(self):
        for m in range(3, 301):
            _assert_orbits_match_the_oracles(m)

    @pytest.mark.slow
    def test_against_characters_up_to_degree_1000(self):
        # phi(m) > 1000 for every m >= 10^4, by the lower bound
        # phi(m) > m / (e^gamma log log m + 3 / log log m) of Rosser and
        # Schoenfeld (1962)
        for m in range(3, 10 ** 4):
            if m % 4 != 2 and arith.totient(m) <= 1000:
                _assert_orbits_match_the_oracles(m)

    @pytest.mark.slow
    @pytest.mark.parametrize("m", [*_CEILING_DIGESTS, 2039])
    def test_against_characters_at_the_ceiling(self, m):
        # the orbit sums and conductors, which every check prime and the
        # per-unit oracle take from the same orbits as hminus
        _assert_orbits_match_the_oracles(m)

    def test_fold_identity(self):
        # a -> f - a moves the value zeta^t of an odd character to
        # zeta^(t + d/2), so c_(t + d/2) = f n_t - c_t, n_t counting the a
        # with that value; every n_t is phi(f)/d, so the folded sums of
        # _odd_orbits give back the whole c_t; n is relabelled with the sums
        for m in range(3, 151):
            full = set()
            for chi, f, sums in _character_orbits(m):
                d = chi.order
                n = Counter(oracles.primitive_value_exponent(chi, a)
                            for a in range(1, f))
                sums, n = _canonical(d, sums, [n[t] for t in range(d)])
                assert set(n) == {oracles.totient(f) // d}, (m, d)
                for t in range(d // 2):
                    assert sums[t + d // 2] == f * n[t] - sums[t], (m, d, t)
                full.add((d, f, sums))
            for d, f, folded in classnumber._odd_orbits(m):
                assert len(folded) == d // 2
                assert (d, f, _canonical(d, _unfold(d, f, folded))[0]) \
                    in full, (m, d)

    def test_table_holds_one_unit_of_each_pair(self):
        # 2a - f for one a of each pair {a, f - a}: the values and their
        # negatives are the 2a - f of all the units mod f
        for m in range(3, 301):
            for f in arith.divisors(m):
                if f < 3 or f % 4 == 2:
                    continue
                table, axes = classnumber._unit_table(m, f)
                assert len(table) == prod(n for _, n in axes)
                assert sorted(table + [-v for v in table]) == \
                    [2 * a - f for a in range(1, f) if gcd(a, f) == 1]

    @pytest.mark.parametrize("m", [257, 255])
    def test_no_character_is_built(self, m, monkeypatch):
        # the characters and their discrete-log tables are test oracles:
        # hminus builds neither, and keeps generators alone per prime power
        built, orbits = [], []
        original_init = oracles.DirichletCharacter.__init__
        original_orbits = classnumber._odd_orbits

        def counting_init(self, modulus, exps):
            built.append(exps)
            original_init(self, modulus, exps)

        def recording_orbits(n):
            orbits.extend(original_orbits(n))
            return orbits

        monkeypatch.setattr(oracles.DirichletCharacter, "__init__",
                            counting_init)
        monkeypatch.setattr(classnumber, "_odd_orbits", recording_orbits)
        for cached in (hminus, classnumber._unit_group,
                       classnumber._crt_prime, oracles.unit_logs):
            cached.cache_clear()
        hminus(m)
        assert built == [] and oracles.unit_logs.cache_info().currsize == 0
        # (p, e, gens) per prime power, with no discrete-log table
        assert all(len(factor) == 3 for factor in classnumber._unit_group(m))
        assert len(orbits) == len(oracles.odd_orbits(m))


def _lane_boundaries():
    """Vectors with n max|a_t|^2 = 2^k or 2^k - 1, every entry at the
    maximum, of one sign or alternating, so that c_0 fills the widest
    lane that its bit length allows."""
    for n, top in [(1, 1), (3, 1), (7, 1), (63, 1), (255, 1), (7, 3),
                   (2, 1), (4, 2), (1, 2 ** 40), (256, 2 ** 40),
                   (128, 2 ** 20), (256, 1)]:
        yield pytest.param([top] * n, id=f"{n}x{top}")
        if n > 1:
            yield pytest.param([(-1) ** t * top for t in range(n)],
                               id=f"{n}x{top}-alternating")


class TestNormCoefficients:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=1,
                    max_size=400))
    @example([0])
    @example([0] * 400)
    @example([0] * 199 + [-2 ** 40] + [0] * 200)
    @example([5] + [0] * 9)
    @example([0] * 9 + [-1])
    def test_autocorrelation_matches_the_sums(self, a):
        assert classnumber._autocorrelation(a) == oracles.autocorrelation(a)

    @pytest.mark.parametrize("a", _lane_boundaries())
    def test_autocorrelation_at_the_lane_boundary(self, a):
        # n max|a|^2 = 2^k and 2^k - 1: c_0 reaches that bound
        assert classnumber._autocorrelation(a) == oracles.autocorrelation(a)

    @pytest.mark.parametrize("d", [*range(2, 129, 2), 1018, 2038, 3660,
                                   3946])
    def test_norms_match_the_sums_of_products(self, d):
        # every even order to 128, and orders near the ceiling: 2 mod 4
        # (1018 = lambda(1019), 2038, 3946) and 4 | d (3660 =
        # lambda(61^2)), whose picks wrap past the repeated row
        ell, zeta = classnumber._crt_prime(d, 0)
        rng = random.Random(d)
        orbits = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(d // 2)]
                  for _ in range(2)]
        orbits.append([0] * (d // 2 - 1) + [1])
        cos = oracles.cos_row(zeta, d, ell)
        assert classnumber._norms(d, orbits, cos, ell) == \
            oracles.norms(d, orbits, cos, ell)

    def test_wrapped_picks(self):
        # steps and counts whose strided slice runs past the repeated row,
        # some of them several times
        rng = random.Random(27)
        for _ in range(300):
            d = rng.randint(1, 600)
            row = [rng.randint(0, 10 ** 9) for _ in range(d)]
            tiled = row * classnumber._ROW_REPEAT
            step = rng.randint(1, 4 * len(tiled))
            count = rng.randint(0, 3 * d)
            start = rng.randrange(d)
            assert classnumber._pick(tiled, d, start, step, count) == \
                oracles.pick(row, start, step, count), (d, start, step)
        for d, step in [(3946, 1972), (3660, 1828), (1018, 508)]:
            row = list(range(d))
            count = (d + 2) // 4
            assert step * count > d * classnumber._ROW_REPEAT
            assert classnumber._pick(row * classnumber._ROW_REPEAT, d, 0,
                                     step, count) == \
                oracles.pick(row, 0, step, count)


def _root_one(monkeypatch, pick):
    """corrupt(m) makes the prime pick(indices) of hminus(m) come with the
    root 1, indices those of the primes that hminus(m) takes.

    A root of another primitive order would not do: the product runs over
    whole Galois orbits and comes out the same.
    """
    original = classnumber._crt_prime

    def corrupt(m):
        used = []

        def record(exponent, index):
            used.append(index)
            return original(exponent, index)

        monkeypatch.setattr(classnumber, "_crt_prime", record)
        hminus.cache_clear()
        hminus(m)
        wrong = pick(used)

        def wrong_root(exponent, index):
            ell, root = original(exponent, index)
            return (ell, 1) if index == wrong else (ell, root)

        monkeypatch.setattr(classnumber, "_crt_prime", wrong_root)
        hminus.cache_clear()

    return corrupt


@pytest.fixture
def corrupt_check_prime(monkeypatch):
    """The last check prime of hminus(m) comes with the root 1."""
    yield _root_one(monkeypatch, max)
    hminus.cache_clear()


@pytest.fixture
def corrupt_evaluation_prime(monkeypatch):
    """The prime whose power carries the value, index 0, comes with the
    root 1, and so does its Teichmueller lift."""
    yield _root_one(monkeypatch, min)
    hminus.cache_clear()


def _exponents_to_2000():
    """lambda(m) for every normalised m <= 2000."""
    return sorted({lcm(*classnumber._generator_orders(m))
                   for m in range(3, 2001) if m % 4 != 2})


class _CountedInt(int):
    """An int that counts the products taken with it on the right."""
    products = 0

    def __rmul__(self, other):
        type(self).products += 1
        return other * int(self)


def _assert_least_precision(m):
    # stepping up from the lower bound of the bit lengths takes at most
    # two comparisons, and k is the least one, as the loop over the powers
    # of l from k = 1 finds it
    exponent = lcm(*classnumber._generator_orders(m))
    ell = classnumber._crt_prime(exponent, 0)[0]
    bound_sq, scale = oracles.norm_bound(m)
    _CountedInt.products = 0
    k = classnumber._precision(ell, bound_sq, _CountedInt(scale))
    assert _CountedInt.products <= 2, m
    assert k == oracles.least_precision(ell, bound_sq, scale), m


class TestHminus:
    @pytest.mark.parametrize("m,expected", [
        (1, 1), (2, 1), (3, 1), (4, 1), (12, 1), (23, 3),
        (29, 8), (39, 2), (65, 64),
        (401, 43605015130536489003338082919559801839979434025811736050075208031224695089275733787630863462455142655169),
    ])
    def test_spot_values(self, m, expected):
        assert hminus(m) == expected

    def test_value_inside_phi_ceiling(self):
        # phi(1009) = 1008; the 358-digit value is pinned by its digest
        value = str(hminus(1009))
        assert len(value) == 358
        assert hashlib.sha256(value.encode()).hexdigest() == \
            "aa5cc30f460e7b5fb288d1d96ca5638303d4153d9f7e72f7b129957f7c3c85ef"

    def test_value_above_the_old_ceiling(self):
        # phi(2039) = 2038; the 877-digit value is pinned by the digest of
        # oracles.orbit_hminus(2039)
        value = str(hminus(2039))
        assert len(value) == 877
        assert hashlib.sha256(value.encode()).hexdigest() == \
            "29ef480c7b33b95f923641e587e6222556985278f3a262e0e54f66220f1481eb"

    @pytest.mark.parametrize("m", [3, 23, 39, 255, 257, 1009, 1553])
    def test_teichmueller_lift_keeps_the_order(self, m):
        # root^(l^(k-1)) mod l^k has order exactly lambda(m), as root mod l,
        # and Newton's iteration finds the same lift
        exponent = lcm(*classnumber._generator_orders(m))
        ell, root = classnumber._crt_prime(exponent, 0)
        for k in range(1, 65):
            lift = pow(root, ell ** (k - 1), ell ** k)
            assert classnumber._teichmueller_lift(root, exponent, ell,
                                                  ell ** k) == lift
            assert lift % ell == root
            assert pow(lift, exponent, ell ** k) == 1
            assert all(pow(lift, exponent // r, ell ** k) != 1
                       for r in arith.factorint(exponent))

    def test_crt_roots_have_the_exponent_as_order(self):
        # the roots built from prime-power parts have order lambda(m), and
        # the primes are those of the plain countdown and root search
        for exponent in _exponents_to_2000():
            for index in (0, 1, 2, 3):
                ell, root = classnumber._crt_prime(exponent, index)
                assert ell == oracles.crt_prime(exponent, index, 30)[0]
                assert pow(root, exponent, ell) == 1, (exponent, index)
                assert all(pow(root, exponent // r, ell) != 1
                           for r in arith.factorint(exponent))

    def test_crt_prime_matches_the_loop_per_part(self):
        # one full-size power per trial base: each part takes its root
        # from the first base that its own loop over the bases finds
        for exponent in _exponents_to_2000():
            for index in (0, 1, 2, 3):
                assert classnumber._crt_prime(exponent, index) == \
                    oracles.crt_prime_per_part(exponent, index), \
                    (exponent, index)

    def test_crt_primes_fit_one_digit(self):
        # the evaluation prime and the three check primes are distinct,
        # below 2^30, and 1 mod the exponent; the check modulus is above
        # 2^60
        for exponent in _exponents_to_2000():
            primes = [classnumber._crt_prime(exponent, index)[0]
                      for index in range(4)]
            assert len(set(primes)) == 4, exponent
            assert all(ell < 2 ** 30 and ell % exponent == 1
                       for ell in primes), exponent
            assert prod(primes[1:]) > 2 ** 60, exponent

    def test_precision_is_the_least_k(self):
        for m in range(3, 2001):
            if m % 4 != 2:
                _assert_least_precision(m)

    @pytest.mark.slow
    @pytest.mark.parametrize("m", _CEILING_DIGESTS)
    def test_precision_is_the_least_k_at_the_ceiling(self, m):
        _assert_least_precision(m)

    def test_strided_row_matches_the_row_per_order(self):
        # the row of x^s + x^(-s) at x of order lambda(m), sliced with
        # stride lambda(m)/d, is the row of zeta = x^(lambda(m)/d) for every
        # even d | lambda(m), and gives _norms the same value
        rng = random.Random(300)
        for exponent in sorted({lcm(*classnumber._generator_orders(m))
                                for m in range(3, 301) if m % 4 != 2}):
            ell, root = classnumber._crt_prime(exponent, 0)
            modulus = ell ** 2
            x = classnumber._teichmueller_lift(root, exponent, ell, modulus)
            row = classnumber._cos_row(x, exponent, modulus)
            for d in range(2, exponent + 1, 2):
                if exponent % d:
                    continue
                strided = row[::exponent // d]
                per_order = oracles.cos_row(
                    pow(x, exponent // d, modulus), d, modulus)
                assert strided == per_order, (exponent, d)
                orbits = [[rng.randint(-10 ** 6, 10 ** 6)
                           for _ in range(d // 2)] for _ in range(2)]
                assert classnumber._norms(d, orbits, strided, modulus) == \
                    classnumber._norms(d, orbits, per_order, modulus)

    @pytest.mark.parametrize("d", range(2, 65, 2))
    def test_paired_norms_are_the_product_over_the_units(self, d):
        # one value per pair {j, -j} (quartet {+-j, +-j + d/2} for 4 | d)
        # through the real subfield against one value per unit j, at a
        # root of order d modulo a prime l = 1 (mod d): d = 2, d = 4,
        # d = 2 mod 4 and 4 | d above 4
        ell, zeta = classnumber._crt_prime(d, 0)
        rng = random.Random(d)
        orbits = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(d // 2)]
                  for _ in range(3)]
        orbits.append([0] * (d // 2 - 1) + [1])
        expected = 1
        for j in range(1, d):
            if gcd(j, d) == 1:
                x = pow(zeta, j, ell)
                for a in orbits:
                    expected = expected * sum(
                        c * pow(x, t, ell) for t, c in enumerate(a)) % ell
        assert classnumber._norms(d, orbits, oracles.cos_row(zeta, d, ell),
                                  ell) == expected

    @pytest.mark.parametrize("m", [3, 7, 25, 3 * 49, 4 * 81])
    def test_generator_of_wrong_order_is_an_internal_error(self, m,
                                                           monkeypatch):
        # a square mod an odd prime power is never a primitive root
        monkeypatch.setattr(classnumber, "primitive_root", lambda q: 4)
        classnumber._unit_group.cache_clear()
        try:
            with pytest.raises(InternalConsistencyError, match="order"):
                classnumber._unit_group(m)
        finally:
            classnumber._unit_group.cache_clear()

    @pytest.mark.parametrize("m", [23, 257, 1009])
    def test_one_prime_power_and_one_check_prime(self, m, monkeypatch):
        # the check modulus is the product of the primes 1, 2 and 3,
        # distinct primes below 2^30 whose product exceeds 2^60
        used, original = {}, classnumber._crt_prime

        def record(exponent, index):
            used[index] = original(exponent, index)[0]
            return original(exponent, index)

        monkeypatch.setattr(classnumber, "_crt_prime", record)
        hminus.cache_clear()
        hminus(m)
        assert set(used) == {0, 1, 2, 3}
        assert all(ell < 2 ** 30 and arith.isprime(ell)
                   for ell in used.values())
        assert len({used[1], used[2], used[3]}) == 3
        assert used[1] * used[2] * used[3] > 2 ** 60

    @pytest.mark.parametrize("m", [4003, 2 * 4003, 4 * 4003, 10007])
    def test_phi_ceiling(self, m):
        assert HMINUS_PHI_CEILING == 4000
        with pytest.raises(UnsupportedModulusError, match="above 4000"):
            hminus(m)

    def test_huge_modulus_is_refused_before_factoring(self, monkeypatch):
        # phi(m) >= sqrt(m/2), so above 2 * 4000^2 no factoring is needed
        calls, original = [], arith.factorint

        def counting(n):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(arith, "factorint", counting)
        monkeypatch.setattr(classnumber, "factorint", counting)
        with pytest.raises(UnsupportedModulusError, match="above 4000"):
            hminus(2 * 4000 ** 2 + 1)
        assert calls == []

    def test_against_bareiss_oracle(self):
        for m in range(1, 201):
            assert hminus(m) == oracles.bareiss_hminus(m), m

    def test_against_orbit_oracle(self):
        for m in range(1, 261):
            assert hminus(m) == oracles.orbit_hminus(m), m

    @pytest.mark.slow
    def test_against_orbit_oracle_beyond_260(self):
        for m in [*range(261, 701), 1009, 1553, 2039]:
            assert hminus(m) == oracles.orbit_hminus(m), m

    def test_against_per_unit_oracle(self):
        for m in range(1, 301):
            if m % 4 != 2:
                assert hminus(m) == oracles.hminus_per_unit(m), m

    @pytest.mark.slow
    def test_against_per_unit_oracle_up_to_degree_1000(self):
        # phi(m) > 1000 for every m >= 10^4 (TestOddOrbits)
        for m in range(301, 10 ** 4):
            if m % 4 != 2 and arith.totient(m) <= 1000:
                assert hminus(m) == oracles.hminus_per_unit(m), m

    @pytest.mark.slow
    @pytest.mark.parametrize("m", [*_CEILING_DIGESTS, 2039])
    def test_against_per_unit_oracle_at_the_ceiling(self, m):
        # one value per unit, not per pair: beyond 2039 no other oracle
        # evaluates h^- in the suite
        assert hminus(m) == oracles.hminus_per_unit(m), m

    @pytest.mark.slow
    def test_digest_up_to_2039(self):
        # one line "m h^-(m)" per normalised m <= 2039
        text = "".join(f"{m} {hminus(m)}\n" for m in range(1, 2040)
                       if m % 4 != 2)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "1188f9e5650730c27d99527d26da5b901dea21ce291db271509b79d1359be221"

    @pytest.mark.slow
    @pytest.mark.parametrize("m", _CEILING_DIGESTS)
    def test_ceiling_digests(self, m):
        value = str(hminus(m)).encode()
        assert hashlib.sha256(value).hexdigest() == _CEILING_DIGESTS[m]

    # every branch of the evaluation must reach the check: the odd
    # characters mod 23 have orders 2 and 22 (d = 2 and d = 2 mod 4), those
    # mod 401 orders 16, 80 and 400 (4 | d, the quartets), those mod 39
    # orders 2, 4, 6 and 12 (all four branches: d = 2, d = 4, d = 2 mod 4
    # and 4 | d above 4), and those mod 257 the one order 256
    @pytest.mark.parametrize("m", [23, 39, 401, 257])
    def test_corrupt_check_prime_is_an_internal_error(self, m,
                                                      corrupt_check_prime):
        assert {d for d, _, _ in classnumber._odd_orbits(m)} == \
            {23: {2, 22}, 39: {2, 4, 6, 12}, 401: {16, 80, 400},
             257: {256}}[m]
        corrupt_check_prime(m)
        with pytest.raises(InternalConsistencyError, match="check prime"):
            hminus(m)

    @pytest.mark.parametrize("m", [23, 39, 401, 257])
    def test_corrupt_evaluation_prime_is_an_internal_error(
            self, m, corrupt_evaluation_prime):
        corrupt_evaluation_prime(m)
        with pytest.raises(InternalConsistencyError, match="check prime"):
            hminus(m)

    def test_corrupt_check_prime_exits_3(self, corrupt_check_prime, capsys,
                                         monkeypatch):
        monkeypatch.delenv("CYCLOCLASS_CACHE", raising=False)
        corrupt_check_prime(39)
        assert run(["hminus", "--m", "39"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("internal consistency failure: analytic minus")
        assert "Traceback" not in err

    @pytest.mark.slow
    def test_divisibility_up_to_1000(self):
        # h^-(n) | h^-(m) for n | m (Washington, GTM 83, Prop. 4.11)
        pairs = [(n, m) for m in range(2, 1001) for n in range(2, m)
                 if m % n == 0]
        assert len(pairs) == 5070
        for n, m in pairs:
            assert hminus(m) % hminus(n) == 0, (n, m)

    @pytest.mark.slow
    def test_divisibility_from_2040_to_3000(self):
        # above the h- digest pinned to 2039, each h-(d) > 1 at a divisor d
        # is an independent check of the orbit sums at a composite m
        moduli = [m for m in range(2040, 3001)
                  if m % 4 != 2 and not arith.isprime(m)]
        pairs = [(d, m) for m in moduli for d in range(3, m)
                 if m % d == 0 and d % 4 != 2]
        assert len(moduli) == 600
        checked = 0
        for d, m in pairs:
            assert hminus(m) % hminus(d) == 0, (d, m)
            checked += hminus(d) > 1
        assert checked == 2138

    def test_two_mod_four_pairing(self):
        for m in (3, 5, 15, 29, 39, 65):
            assert hminus(2 * m) == hminus(m)

    def test_two_mod_four_reads_the_entry_of_the_half(self, monkeypatch):
        # the field of 78 is that of 39: its orbits are walked once
        calls, original = [], classnumber._odd_orbits

        def counting(n):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(classnumber, "_odd_orbits", counting)
        hminus.cache_clear()
        assert hminus(39) == 2 and calls == [39]
        assert hminus(78) == 2 and calls == [39]

    def test_ones_below_sixty(self):
        computed = {m for m in range(2, 61) if hminus(m) == 1}
        assert computed == {m for m in HMINUS_ONE if m <= 60}

    def test_stored_list_is_consistent(self):
        for m in range(2, 61):
            assert hminus_is_one(m) == (hminus(m) == 1)

    def test_parity_matches_hp_table(self):
        # every prime the stored table covers, up to 509
        from sympy import primerange
        for p in primerange(2, 510):
            assert (hminus(p) % 2 == 1) == hp_is_odd(p), p

    def test_growth_spot_check(self):
        from sympy import primerange
        running_max, maxima = 0, []
        for p in primerange(2, 201):
            running_max = max(running_max, hminus(p))
            maxima.append(running_max)
        assert maxima[-1] > maxima[len(maxima) // 2] > maxima[2]
        assert maxima[-1] > 10 ** 10

    def test_classical_prime_table(self):
        # the classical minus class numbers of prime cyclotomic fields
        known = {23: 3, 29: 8, 31: 9, 37: 37, 41: 121, 43: 211, 47: 695,
                 53: 4889, 59: 41241, 61: 76301, 67: 853513, 71: 3882809,
                 73: 11957417, 79: 100146415, 83: 838216959,
                 89: 13379363737}
        for p, expected in known.items():
            assert hminus(p) == expected, p

    def test_float_cross_check(self):
        # high-precision analytic check of the character product
        import cmath
        from math import gcd
        for m in (23, 29, 31, 39):
            chars = [c for c in characters(m) if c.parity == -1]
            value = complex(1, 0)
            for chi in chars:
                f = chi.conductor
                total = complex(0, 0)
                for a in range(1, f):
                    if gcd(a, f) != 1:
                        continue
                    t = oracles.primitive_value_exponent(chi, a)
                    total += a * cmath.exp(2j * cmath.pi * t / chi.order)
                value *= -total / (2 * f)
            q_factor = 2 if m in (39,) else 1
            w = 2 * m if m % 2 else m
            approx = (q_factor * w * value).real
            assert abs(approx - hminus(m)) < 1e-6


def _assert_kummer(p):
    """p | h^-(p) exactly when p is irregular, and v_p(h^-(p)) = i(p)."""
    h, index = hminus(p), oracles.irregularity_index(p)
    assert (h % p == 0) == (index > 0), p
    assert oracles.multiplicity(p, h) == index, p


def _prime_powers(limit):
    """The p^e, e >= 2, with phi(p^e) <= limit."""
    return [p ** e for p in range(3, limit, 2) if arith.isprime(p)
            for e in range(2, limit.bit_length())
            if p ** e - p ** (e - 1) <= limit]


class TestKummer:
    """h^-(p) against Bernoulli numbers, which share nothing with the
    orbit sums, their conductors or the norm bound.

    Kummer's criterion (Washington, GTM 83, Thm 5.34): p | h^-(p) exactly
    when p divides some B_k, k = 2, 4, ..., p - 3.  Each such k gives one
    odd character whose B_1 is = B_k / k (mod p), so v_p(h^-(p)) >= i(p);
    the equality is pinned as observed on these primes.  At a prime power,
    p | h^-(p^e) exactly when p is irregular (Washington, Ch. 10).
    """

    def test_irregular_primes_below_300(self):
        # the irregular primes below 300, and the one of index 2
        irregular = [p for p in range(5, 300, 2) if arith.isprime(p)
                     and oracles.irregularity_index(p)]
        assert irregular == [37, 59, 67, 101, 103, 131, 149, 157, 233, 257,
                             263, 271, 283, 293]
        assert oracles.irregularity_index(157) == 2

    def test_kummer_below_300(self):
        for p in range(5, 300, 2):
            if arith.isprime(p):
                _assert_kummer(p)
        for q in _prime_powers(200):
            (p, _), = arith.factorint(q).items()
            assert (hminus(q) % p == 0) == \
                (oracles.irregularity_index(p) > 0), q

    @pytest.mark.slow
    def test_kummer_up_to_3947(self):
        for p in [*range(301, 1000, 2), 1523, 2039, 2999, 3863, 3947]:
            if arith.isprime(p):
                _assert_kummer(p)
        powers = _prime_powers(HMINUS_PHI_CEILING)
        assert len(powers) == 29
        for q in powers:
            (p, _), = arith.factorint(q).items()
            assert (hminus(q) % p == 0) == \
                (oracles.irregularity_index(p) > 0), q


class TestOddPart:
    def test_values(self):
        assert odd_part(8) == 1
        assert odd_part(565) == 565
        assert odd_part(104) == 13

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            odd_part(0)


class TestHpTable:
    def test_known_values(self):
        assert hp_is_odd(3)
        assert not hp_is_odd(29)
        assert hp_is_odd(509)
        assert not hp_is_odd(491)

    def test_out_of_table(self):
        with pytest.raises(ValueError):
            hp_is_odd(521)
        with pytest.raises(ValueError):
            hp_is_odd(15)


class TestStoredParity:
    """The stored parity facts against hminus where it is computable; the
    h^- = 1 and odd(h^-) = 1 lists are complete by Masley-Montgomery
    (J. reine angew. Math. 286/287, 1976), which no test proves."""

    @pytest.mark.slow
    def test_lists_up_to_1000(self):
        for m in range(2, 1001):
            h = hminus(m)
            assert hminus_is_one(m) == (h == 1), m
            assert (m in HMINUS_ONE or m in ODD_HMINUS_ONE) == \
                (odd_part(h) == 1), m

    @pytest.mark.slow
    def test_prime_table_at_prime_powers(self):
        # the p^e, e >= 2, whose parity h_is_odd reads off the table of
        # h_p: those in neither list, with phi(p^e) <= HMINUS_PHI_CEILING
        powers = [q for q in [2 ** e for e in range(2, 13)]
                  + _prime_powers(HMINUS_PHI_CEILING)
                  if arith.totient(q) <= HMINUS_PHI_CEILING
                  and q not in HMINUS_ONE and q not in ODD_HMINUS_ONE]
        assert len(powers) == 33
        for q in powers:
            assert classnumber.h_is_odd(q, compute=False) == \
                (hminus(q) % 2 == 1), q


class TestKnownClassGroup:
    def test_structures(self):
        assert known_class_group(29) == known_class_group(58) == \
            FinAbGroup([2, 2, 2])
        assert known_class_group(39) == FinAbGroup([2])
        assert known_class_group(65) == FinAbGroup.from_cyclic_factors(
            [2, 2, 4, 4])

    def test_order_is_hminus(self):
        # the plus part is trivial at every entry, so the order is h^-
        stored = [m for m in range(1, 201) if known_class_group(m) is not None]
        assert stored == [29, 39, 58, 65, 78, 130]
        # so at a square-free m, odd(h^-) = 1 > h^- exactly where the class
        # group is stored: the difference witness reads it as exact
        assert set(stored) == ODD_HMINUS_ONE_SQUAREFREE
        for m in stored:
            assert known_class_group(m).order == hminus(m), m
