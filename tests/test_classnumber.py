import hashlib
import random
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from math import gcd, prod

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

import oracles
import pins
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
from cycloclass.cli import answer
from oracles import characters


def _counted_factorings(monkeypatch):
    """A Counter of the arguments of arith.factorint from here on, with the
    records of arith.modulus emptied: every factoring goes through it."""
    calls, original = Counter(), arith.factorint

    def counting(n):
        calls[n] += 1
        return original(n)

    monkeypatch.setattr(arith, "factorint", counting)
    oracles.clear_caches()
    return calls


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


def _assert_orbits_match_the_oracles(m):
    """_odd_orbits(m) against the fold of ``oracles.full_orbits``, orbit by
    orbit, and, unfolded, against the orbits from ``characters`` and the
    walk of ``oracles.odd_orbits``, each orbit in canonical form."""
    folded = oracles.folded_orbits(m)
    assert folded == [(d, f, _fold(d, sums))
                      for d, f, sums in oracles.full_orbits(m)], m
    new = Counter((d, f, _canonical(d, _unfold(d, f, sums)))
                  for d, f, sums in folded)
    for oracle in (_character_orbits, oracles.odd_orbits):
        old = Counter((chi.order, f, _canonical(chi.order, sums))
                      for chi, f, sums in oracle(m))
        assert new == old, (m, oracle.__name__)


def _recorded_orbits(monkeypatch):
    """The (d, f, folded) that each _odd_orbits call computes from here
    on, the orbits it skips left out."""
    computed, original = [], classnumber._odd_orbits

    def recording(units, primes, stored):
        found, skipped = original(units, primes, stored)
        computed.extend(found)
        return found, skipped

    monkeypatch.setattr(classnumber, "_odd_orbits", recording)
    return computed


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
            if m % 4 != 2 and arith.modulus(m).phi <= 1000:
                _assert_orbits_match_the_oracles(m)

    @pytest.mark.slow
    @pytest.mark.parametrize("m", [*pins.CEILING_DIGESTS, 2039])
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
            for d, f, folded in oracles.folded_orbits(m):
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
                table, axes = classnumber._unit_table(
                    oracles.unit_group(m), f)
                assert len(table) == prod(n for _, n in axes)
                assert sorted(table + [-v for v in table]) == \
                    [2 * a - f for a in range(1, f) if gcd(a, f) == 1]

    @pytest.mark.parametrize("m", [257, 255])
    def test_no_character_is_built(self, m, monkeypatch):
        # the characters and their discrete-log tables are test oracles:
        # hminus builds neither, and keeps generators alone per prime power
        built = []
        original_init = oracles.DirichletCharacter.__init__

        def counting_init(self, modulus, exps):
            built.append(exps)
            original_init(self, modulus, exps)

        monkeypatch.setattr(oracles.DirichletCharacter, "__init__",
                            counting_init)
        orbits = _recorded_orbits(monkeypatch)
        oracles.clear_caches()
        oracles.unit_logs.cache_clear()
        hminus(m)
        assert built == [] and oracles.unit_logs.cache_info().currsize == 0
        # (p, e, gens, primes) per prime power, with no discrete-log table
        assert all(len(factor) == 4 for factor in classnumber._unit_group(m))
        assert len(orbits) == len(oracles.odd_orbits(m))


def _lane_boundaries():
    """Vectors with n max|a_t|^2 = 2^k or 2^k - 1, or with its bit length
    8B - 2 at either end of that range, for lanes of exactly B = 2, 3 and
    6 bytes, every entry at the maximum, of one sign or alternating, so
    that c_0 fills the widest lane that its bit length allows."""
    for n, top in [(1, 1), (3, 1), (7, 1), (63, 1), (255, 1), (7, 3),
                   (2, 1), (4, 2), (1, 2 ** 40), (256, 2 ** 40),
                   (128, 2 ** 20), (256, 1),
                   # n max|a_t|^2 = 2^13 and 15,987 (B = 2), 2^21 and
                   # 4,186,116 (B = 3), 2^45 and 64 (2^20 - 1)^2 (B = 6)
                   (2, 2 ** 6), (3, 73), (2, 2 ** 10), (4, 1023),
                   (2, 2 ** 22), (64, 2 ** 20 - 1)]:
        yield pytest.param([top] * n, id=f"{n}x{top}")
        if n > 1:
            yield pytest.param([(-1) ** t * top for t in range(n)],
                               id=f"{n}x{top}-alternating")


@st.composite
def _tower_orbits(draw):
    """(d, a): d = 2^v d', d' odd, with a of length n = d/2 = 2^(v-1) d' up
    to 512, so up to nine halvings, and entries up to 2^40 in size."""
    v = draw(st.integers(1, 10))
    odd = 2 * draw(st.integers(0, (2 ** (10 - v) - 1) // 2)) + 1
    n = 2 ** (v - 1) * odd
    top = draw(st.sampled_from([1, 2 ** 8 - 1, 2 ** 40]))
    return 2 * n, draw(st.lists(st.integers(-top, top), min_size=n,
                                max_size=n))


def _halved_norms(d, orbits, row_of, modulus):
    """The product of the norms from Q(zeta_d) of the orbits of order d,
    mod modulus, as hminus takes them: each orbit halved down to its order
    e, the closed forms at the orders e of _CLOSED_ORDERS, and _norms on
    row_of(e), the row of x^s + x^(-s) at x of order e, at the others."""
    value, left = 1, []
    for a in orbits:
        e, halved = classnumber._halve(d, a)
        if e in classnumber._CLOSED_ORDERS:
            value = value * classnumber._closed_norm(e, halved) % modulus
        else:
            left.append(halved)
    if left:
        value = value * classnumber._norms(e, left, row_of(e), modulus) \
            % modulus
    return value


def _rows_of(zeta, d, modulus):
    """row_of for ``_halved_norms``: the row of order e | d at zeta^(d/e),
    zeta of order d, from its own powers."""
    return lambda e: oracles.cos_row(pow(zeta, d // e, modulus), e, modulus)


def _real_coefficients(a):
    """b_0 = R_0 and b_u = R_u - R_(n - u), 0 < u < ceil(n/2), from the
    autocorrelations R_u of the n entries of a."""
    r, n = oracles.autocorrelation(a), len(a)
    return [r[0], *(r[u] - r[n - u] for u in range(1, (n + 1) // 2))]


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
        assert classnumber._packed_autocorrelation(a) == \
            oracles.autocorrelation(a)
        assert classnumber._real_coefficients(a) == _real_coefficients(a)

    @pytest.mark.parametrize("a", _lane_boundaries())
    def test_autocorrelation_at_the_lane_boundary(self, a):
        # n max|a|^2 = 2^k and 2^k - 1: c_0 reaches that bound
        assert classnumber._packed_autocorrelation(a) == \
            oracles.autocorrelation(a)

    @pytest.mark.parametrize("width", [1, 2, 3, 6])
    def test_pack_and_unpack_round_trip_at_the_lane_bound(self, width):
        # lanes at +-(2^(8 width - 2) - 1), the largest _unpack reads, alone
        # and in pairs of each sign: the packed value is sum_t a_t X^t plus
        # the bias
        top = 2 ** (8 * width - 2) - 1
        for a in ([top], [-top], [0], [top, top], [top, -top], [-top, top],
                  [-top, -top]):
            packed = classnumber._pack(a, width)
            assert packed - classnumber._bias(len(a), width) == \
                sum(x << 8 * width * t for t, x in enumerate(a))
            assert classnumber._unpack(packed, len(a), width) == a

    @pytest.mark.parametrize(
        "n", range(1, 3 * classnumber._DIRECT_LENGTH + 1))
    def test_packed_and_direct_agree_at_every_length(self, n):
        # the coefficients as sums up to _DIRECT_LENGTH and from the one
        # product above it, on both sides of the switch: zeros, one entry,
        # alternating signs at the largest entry, and seeded entries
        rng = random.Random(n)
        for a in ([0] * n, [0] * (n - 1) + [-3],
                  [(-1) ** t * 2 ** 30 for t in range(n)],
                  [(-1) ** t * (t + 1) for t in range(n)],
                  [rng.randint(-2 ** 20, 2 ** 20) for _ in range(n)]):
            assert classnumber._packed_autocorrelation(a) == \
                oracles.autocorrelation(a), a
            assert classnumber._real_coefficients(a) == \
                _real_coefficients(a), a

    @pytest.mark.parametrize("d", [*range(2, 129, 2), 1018, 2038, 3660,
                                   3946])
    def test_norms_match_the_sums_of_products(self, d):
        # every even order to 128, and orders near the ceiling: 2 mod 4
        # (1018 = lambda(1019), 2038, 3946) and 4 | d (3660 =
        # lambda(61^2), halved to 1830), whose picks wrap past the repeated
        # row; halved first, against the norms at order d itself
        ell, zeta = oracles.hminus_crt_primes(d)[0]
        rng = random.Random(d)
        orbits = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(d // 2)]
                  for _ in range(2)]
        orbits.append([0] * (d // 2 - 1) + [1])
        assert _halved_norms(d, orbits, _rows_of(zeta, d, ell), ell) == \
            oracles.norms(d, orbits, oracles.cos_row(zeta, d, ell), ell)

    @settings(max_examples=60, deadline=None)
    @given(_tower_orbits())
    @example((4, [0, 0]))
    @example((1024, [0] * 511 + [-2 ** 40]))
    @example((1024, [2 ** 40] * 512))
    @example((1024, [(-1) ** t * 2 ** 40 for t in range(512)]))
    @example((6, [1, -2, 3]))
    def test_halve_matches_the_convolutions(self, case):
        d, a = case
        assert classnumber._halve(d, a) == oracles.halve(d, a)

    @pytest.mark.parametrize("d", [4, 8, 24, 64, 1024])
    @pytest.mark.parametrize("top", [1, 2 ** 7 - 1, 2 ** 7, 2 ** 8 - 1,
                                     2 ** 15, 2 ** 40])
    def test_halve_at_the_lane_boundary(self, d, top):
        # every entry at the largest size, of one sign or alternating, with
        # max|a_t| and n near a power of two: the lanes at their fullest
        for a in ([top] * (d // 2), [-top] * (d // 2),
                  [(-1) ** t * top for t in range(d // 2)]):
            assert classnumber._halve(d, a) == oracles.halve(d, a)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 6, 10, 14, 18, 30]).flatmap(
        lambda e: st.tuples(st.just(e), st.lists(
            st.integers(-2 ** 40, 2 ** 40), min_size=e // 2,
            max_size=e // 2))))
    @example((2, [-7]))
    @example((6, [0, 0, 0]))
    @example((10, [0, 0, 0, 0, 1]))
    @example((10, [2 ** 40] * 5))
    @example((14, [0] * 7))
    @example((14, [0] * 6 + [1]))
    @example((14, [2 ** 40] * 7))
    @example((18, [0] * 9))
    @example((18, [1] + [0] * 8))
    @example((18, [(-1) ** t * 2 ** 40 for t in range(9)]))
    @example((30, [0] * 15))
    @example((30, [0] * 14 + [-1]))
    @example((30, [-2 ** 40] * 15))
    @example((30, [(-1) ** t * 2 ** 40 for t in range(15)]))
    def test_closed_forms_match_the_norms(self, case):
        # exact, against the multimodular norm, and mod a prime against
        # the norms at order e through the real subfield: zero, a unit
        # (whose matrix has zero pivots), and every entry at the largest
        # size, of one sign or alternating, at each cubic and quartic order
        e, r = case
        norm = classnumber._closed_norm(e, r)
        assert norm == oracles.cyclotomic_norm_int(r, e)
        ell, zeta = oracles.hminus_crt_primes(e)[0]
        assert norm % ell == \
            oracles.norms(e, [r], oracles.cos_row(zeta, e, ell), ell)

    def test_real_subfield_bases(self):
        # psi_e is the minimal polynomial of zeta_e + zeta_e^(-1) that the
        # oracles derive from Phi_e, and the columns of the coordinates are
        # C_u = zeta^u + zeta^(-u) (1 at u = 0) at a root of order e mod l;
        # the closed orders are every e = 2 (mod 4) with phi(e) <= 8, all
        # below 200 as phi(e) >= sqrt(e/2)
        for e, psi in classnumber._PSI.items():
            assert (*psi, 1) == oracles.lambda_min_poly_int(e)
            ell, zeta = oracles.hminus_crt_primes(e)[0]
            c = (zeta + pow(zeta, -1, ell)) % ell
            row = oracles.cos_row(zeta, e, ell)
            _, coordinates = classnumber._REAL_BASES[e]
            columns = list(zip(*coordinates))
            assert len(columns) == (e + 2) // 4
            for u, column in enumerate(columns):
                assert sum(a * c ** i for i, a in enumerate(column)) % ell \
                    == row[u], (e, u)
        assert classnumber._CLOSED_ORDERS == {
            e for e in range(2, 200, 4) if oracles.totient(e) <= 8}

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
            assert classnumber._pick(tiled, d, step, count) == \
                oracles.pick(row, 0, step, count), (d, step)
        for d, step in [(3946, 1972), (3660, 1828), (1018, 508)]:
            row = list(range(d))
            count = (d + 2) // 4
            assert step * count > d * classnumber._ROW_REPEAT
            assert classnumber._pick(row * classnumber._ROW_REPEAT, d,
                                     step, count) == \
                oracles.pick(row, 0, step, count)


def _root_one(monkeypatch, index):
    """corrupt(m) makes the CRT prime ``index`` of hminus(m) come with the
    root 1: 0 the prime whose power carries the value, 3 the last check
    prime.

    A root of another primitive order would not do: the product runs over
    whole Galois orbits and comes out the same.
    """
    original = classnumber._crt_prime

    def corrupt(m):
        def wrong_root(exponent, lambda_primes):
            primes = list(original(exponent, lambda_primes))
            primes[index] = primes[index][0], 1
            return tuple(primes)

        monkeypatch.setattr(classnumber, "_crt_prime", wrong_root)
        oracles.clear_caches()

    return corrupt


@pytest.fixture
def corrupt_check_prime(monkeypatch):
    """The last check prime of hminus(m) comes with the root 1."""
    yield _root_one(monkeypatch, 3)
    oracles.clear_caches()


@pytest.fixture
def corrupt_evaluation_prime(monkeypatch):
    """The prime whose power carries the value, index 0, comes with the
    root 1, and so does its Teichmueller lift."""
    yield _root_one(monkeypatch, 0)
    oracles.clear_caches()


@pytest.fixture
def corrupt_orbit_sum(monkeypatch):
    """corrupt(m) adds 1 to the first folded sum of the first orbit of
    hminus(m)."""
    original = classnumber._odd_orbits

    def corrupt(m):
        def wrong_sums(units, primes, stored):
            ((d, f, folded), *rest), skipped = original(units, primes,
                                                        stored)
            return [(d, f, [folded[0] + 1, *folded[1:]]), *rest], skipped

        monkeypatch.setattr(classnumber, "_odd_orbits", wrong_sums)
        oracles.clear_caches()

    yield corrupt
    oracles.clear_caches()


def _exponents_to_the_ceiling():
    """lambda(m) for every normalised m with phi(m) <= HMINUS_PHI_CEILING.

    Every such m is below 40000: phi(m) > m / (e^gamma log log m +
    2.50637 / log log m) for m >= 3 (Rosser and Schoenfeld, Illinois J.
    Math. 6 (1962), (3.42)), above 7000 at m = 40000 and growing."""
    return sorted({arith.modulus(m).exponent
                   for m in range(3, 40000) if m % 4 != 2
                   and arith.modulus(m).phi <= HMINUS_PHI_CEILING})


def _has_order(root, exponent, ell):
    return pow(root, exponent, ell) == 1 and all(
        pow(root, exponent // r, ell) != 1 for r in sympy.factorint(exponent))


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
    exponent = arith.modulus(m).exponent
    ell = oracles.hminus_crt_primes(exponent)[0][0]
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
            pins.HMINUS_DIGESTS[1009]

    def test_value_above_the_old_ceiling(self):
        # phi(2039) = 2038; the 877-digit value is pinned by the digest of
        # oracles.orbit_hminus(2039)
        value = str(hminus(2039))
        assert len(value) == 877
        assert hashlib.sha256(value.encode()).hexdigest() == \
            pins.HMINUS_DIGESTS[2039]

    @pytest.mark.parametrize("m", [3, 23, 39, 255, 257, 1009, 1553])
    def test_teichmueller_lift_keeps_the_order(self, m):
        # root^(l^(k-1)) mod l^k has order exactly lambda(m), as root mod l,
        # and Newton's iteration finds the same lift
        exponent = arith.modulus(m).exponent
        ell, root = oracles.hminus_crt_primes(exponent)[0]
        for k in range(1, 65):
            lift = pow(root, ell ** (k - 1), ell ** k)
            assert classnumber._teichmueller_lift(root, exponent, ell,
                                                  ell ** k) == lift
            assert lift % ell == root
            assert pow(lift, exponent, ell ** k) == 1
            assert all(pow(lift, exponent // r, ell ** k) != 1
                       for r in arith.factorint(exponent))

    def test_crt_roots_have_the_exponent_as_order(self):
        # the primes are those of the plain countdown in steps of F by
        # sympy, for every exponent up to 2000 that hminus meets, and the
        # roots built from prime-power parts have order lambda(m)
        for exponent in _exponents_to_the_ceiling():
            if exponent > 2000:
                break
            for index in (0, 1, 2, 3):
                ell, root = oracles.hminus_crt_primes(exponent)[index]
                assert ell == oracles.crt_prime(exponent, index, 30)[0]
                assert _has_order(root, exponent, ell), (exponent, index)

    def test_hminus_with_the_old_crt_primes(self, monkeypatch):
        # the primes 1 mod lambda(m) by Miller-Rabin, with the roots of one
        # loop over the bases per part, give every h^- to 500 as the primes
        # that the root search proves do
        expected = {m: hminus(m) for m in range(1, 501) if m % 4 != 2}
        old = {exponent: tuple(oracles.crt_prime_per_part(exponent, index)
                               for index in range(4))
               for exponent in {arith.modulus(m).exponent
                                for m in expected if m > 2}}
        assert any(oracles.hminus_crt_primes(exponent)[0][0] != primes[0][0]
                   for exponent, primes in old.items())
        monkeypatch.setattr(classnumber, "_crt_prime",
                            lambda exponent, primes: old[exponent])
        oracles.clear_caches()
        try:
            for m, h in expected.items():
                assert hminus(m) == h, m
        finally:
            oracles.clear_caches()

    def test_crt_primes_fit_one_digit(self):
        # for each of the 813 exponents lambda(m), phi(m) <= 4000: four
        # distinct primes below 2^30, by sympy, each 1 mod the step F and
        # with a root of order the exponent; the check modulus, the product
        # of the last three, is above 2^87
        exponents = _exponents_to_the_ceiling()
        assert len(exponents) == 813
        for exponent in exponents:
            step = oracles.crt_step(exponent)
            assert step ** 2 >= 2 ** 30 > (step // 2) ** 2
            primes = oracles.hminus_crt_primes(exponent)
            ells = [ell for ell, _ in primes]
            assert len(set(ells)) == 4, exponent
            assert all(ell < 2 ** 30 and ell % step == 1
                       and sympy.isprime(ell) for ell in ells), exponent
            assert prod(ells[1:]) > 2 ** 87, exponent
            assert all(_has_order(root, exponent, ell)
                       for ell, root in primes), exponent

    @pytest.mark.parametrize("exponent", [1, 3, 15, 105, 1001, 3003])
    def test_odd_exponent_tests_the_prime_two(self, exponent):
        # lambda(m) is even for m > 2, but an odd exponent has F =
        # 2 exponent 2^a, and the part of 2 must be settled too
        for index in range(4):
            ell, root = oracles.hminus_crt_primes(exponent)[index]
            assert ell == oracles.crt_prime(exponent, index, 30)[0]
            assert _has_order(root, exponent, ell)

    def test_carmichael_number_is_rejected(self):
        # 56052361 = 211 * 421 * 631, Chernick's (6k+1)(12k+1)(18k+1) at
        # k = 35, has no prime factor below 100 and passes Fermat to every
        # base: only the gcd or an open part can reject it
        n, bases = 56052361, arith._SCREEN_PRIMES[1:]
        assert sympy.factorint(n) == {211: 1, 421: 1, 631: 1}
        assert gcd(n, arith._SCREEN_PRODUCT) == 1
        assert all(pow(x, n - 1, n) == 1 for x in bases)
        # 2520 | n - 1, and x^((n-1)/3) is 1 mod 211 and 421, but not mod
        # 631 when x is not a cube there: the gcd is 211 * 421
        parts = [(8, 2), (9, 3), (5, 5), (7, 7)]
        assert classnumber._pocklington(n, 2520, parts, bases) is None
        # p - 1 divides (n-1)/2 for each p | n, so x^((n-1)/2) = 1 for
        # every base: the part of 2 stays open, and n is skipped
        assert classnumber._pocklington(n, 8, [(8, 2)], bases) is None
        assert not arith.isprime(n)

    def test_crt_primes_keep_their_digest(self):
        # every prime and root of the 813 exponents lambda(m), phi(m) <=
        # 4000: the scan skips a candidate the bases leave open, and none
        # of these scans meets one
        text = "".join(f"{exponent} {ell} {root}\n"
                       for exponent in _exponents_to_the_ceiling()
                       for ell, root in oracles.hminus_crt_primes(exponent))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            pins.CRT_DIGESTS[HMINUS_PHI_CEILING]

    def test_short_progression_is_refused(self):
        # the exponent 2^29 leaves one candidate below 2^30, 2^29 + 1 =
        # 3 * 178956971
        with pytest.raises(UnsupportedModulusError, match="fewer than four"):
            oracles.hminus_crt_primes(2 ** 29)

    def test_precision_is_the_least_k(self):
        for m in range(3, 2001):
            if m % 4 != 2:
                _assert_least_precision(m)

    @pytest.mark.slow
    @pytest.mark.parametrize("m", pins.CEILING_DIGESTS)
    def test_precision_is_the_least_k_at_the_ceiling(self, m):
        _assert_least_precision(m)

    def test_strided_row_matches_the_row_per_order(self):
        # the row of x^s + x^(-s) at x of order lambda(m), sliced with
        # stride lambda(m)/d, is the row of zeta = x^(lambda(m)/d) for every
        # even d | lambda(m), and its slice at the halved order gives the
        # norms at order d
        rng = random.Random(300)
        for exponent in sorted({arith.modulus(m).exponent
                                for m in range(3, 301) if m % 4 != 2}):
            ell, root = oracles.hminus_crt_primes(exponent)[0]
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
                assert _halved_norms(
                    d, orbits, lambda e: row[::exponent // e], modulus) == \
                    oracles.norms(d, orbits, per_order, modulus)

    @pytest.mark.parametrize("d", range(2, 65, 2))
    def test_paired_norms_are_the_product_over_the_units(self, d):
        # each orbit halved to its order e, then a closed form (phi(e) <=
        # 8) or one value per pair {j, -j} through the real subfield,
        # against one value per unit j mod d, at a root of order d modulo a
        # prime l = 1 (mod d): d = 2 mod 4 and 4 | d, landing on 2, 6, 10,
        # 14, 18, 30 and the orders left
        ell, zeta = oracles.hminus_crt_primes(d)[0]
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
        assert _halved_norms(d, orbits, _rows_of(zeta, d, ell), ell) == \
            expected

    @pytest.mark.parametrize("m", [3, 7, 25, 3 * 49, 4 * 81])
    def test_generator_of_wrong_order_is_an_internal_error(self, m,
                                                           monkeypatch):
        # a square mod an odd prime power is never a primitive root; the
        # caches are emptied first, as a prime power is searched once
        oracles.clear_caches()
        monkeypatch.setattr(classnumber, "_primitive_root",
                            lambda q, p, primes: 4)
        with pytest.raises(InternalConsistencyError, match="order"):
            classnumber._unit_group(m)

    def test_shared_local_factors_equal_the_cold_ones(self):
        # each prime power is searched once per process and its factor
        # shared by every m it divides exactly: in increasing and in
        # shuffled order, the unit group of every normalised m < 5000
        # equals the one computed from emptied caches, and each prime
        # power is searched once
        moduli = [m for m in range(1, 5000) if m % 4 != 2]
        cold = {}
        for m in moduli:
            oracles.clear_caches()
            cold[m] = classnumber._unit_group(m)
        prime_powers = {(p, e) for m in moduli
                        for p, e, _, _ in cold[m]}
        shuffled = moduli[:]
        random.Random(4001).shuffle(shuffled)
        for order in (moduli, shuffled):
            oracles.clear_caches()
            assert {m: classnumber._unit_group(m) for m in order} == cold
            assert classnumber._local_units.cache_info().misses == \
                len(prime_powers)

    def test_generators_are_the_least_primitive_roots(self):
        for p in sympy.primerange(3, 2 * 10 ** 4):
            q = p
            while q < 2 * 10 ** 4:
                (_, _, ((g, order),), _), = classnumber._unit_group(q)
                assert (g, order) == (oracles.primitive_root(q), q - q // p)
                q *= p

    def test_one_factorisation_per_prime_power(self, monkeypatch):
        # m once, then p - 1 once per odd p | m: the search for the
        # primitive root and the check of its order share the primes
        calls = _counted_factorings(monkeypatch)
        m = 2 ** 5 * 3 ** 2 * 5 * 7 ** 3 * 11
        classnumber._unit_group(m)
        assert list(calls.elements()) == [m, 2, 4, 6, 10]

    def test_m_and_lambda_factored_once_per_hminus(self, monkeypatch):
        # a cold hminus(m), for each of the 121 normalised m in 100..260,
        # factors m once and p - 1 once for each odd p | m, each through
        # arith.modulus, and lambda(m) never: its primes are those that
        # the unit group read off the p - 1.  303 calls in all
        calls, total = _counted_factorings(monkeypatch), 0
        try:
            for m in range(100, 261):
                if m % 4 == 2:
                    continue
                oracles.clear_caches()
                calls.clear()
                hminus(m)
                odd = {p - 1 for p in sympy.primefactors(m) if p > 2}
                assert calls == Counter({m, *odd}), (m, calls)
                total += calls.total()
        finally:
            oracles.clear_caches()
        assert total == 303

    @pytest.mark.parametrize("m", [23, 211, 1009])
    def test_one_prime_power_and_one_check_prime(self, m, monkeypatch):
        # hminus reads the four primes of one scan: the check modulus is
        # the product of the primes 1, 2 and 3, distinct primes below 2^30
        # whose product exceeds 2^87
        used, original = [], classnumber._crt_prime

        def record(exponent, lambda_primes):
            used.append(exponent)
            return original(exponent, lambda_primes)

        monkeypatch.setattr(classnumber, "_crt_prime", record)
        oracles.clear_caches()
        hminus(m)
        exponent, = used
        primes = [ell for ell, _ in oracles.hminus_crt_primes(exponent)]
        assert len(set(primes)) == 4 and primes == sorted(primes, reverse=True)
        assert all(ell < 2 ** 30 and arith.isprime(ell) for ell in primes)
        assert primes[1] * primes[2] * primes[3] > 2 ** 87

    @pytest.mark.parametrize("m", [4003, 2 * 4003, 4 * 4003, 10007])
    def test_phi_ceiling(self, m):
        assert HMINUS_PHI_CEILING == 4000
        with pytest.raises(UnsupportedModulusError, match="above 4000"):
            hminus(m)

    def test_huge_modulus_is_refused_before_factoring(self, monkeypatch):
        # phi(m) >= sqrt(m/2), so above 2 * 4000^2 no factoring is needed
        calls = _counted_factorings(monkeypatch)
        with pytest.raises(UnsupportedModulusError, match="above 4000"):
            hminus(2 * 4000 ** 2 + 1)
        assert not calls

    @pytest.mark.parametrize("m", [10007, 4 * 4003])
    def test_phi_refusal_factors_only_m(self, m, monkeypatch):
        # phi(m) is read off modulus(m) before the unit group is built: no
        # p - 1 is factored and no primitive root is sought
        def search(q, p, primes):
            pytest.fail(f"primitive root sought modulo {q}")

        calls = _counted_factorings(monkeypatch)
        monkeypatch.setattr(classnumber, "_primitive_root", search)
        oracles.clear_caches()
        with pytest.raises(UnsupportedModulusError, match="above 4000"):
            hminus(m)
        assert calls == Counter({m: 1})

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
            if m % 4 != 2 and arith.modulus(m).phi <= 1000:
                assert hminus(m) == oracles.hminus_per_unit(m), m

    @pytest.mark.slow
    @pytest.mark.parametrize("m", [*pins.CEILING_DIGESTS, 2039, 3457, 4096])
    def test_against_per_unit_oracle_at_the_ceiling(self, m):
        # one value per unit, not per pair: beyond 2039 no other oracle
        # evaluates h^- in the suite, so the pinned digests of these values
        # rest on it
        assert hminus(m) == oracles.hminus_per_unit(m), m

    # every branch of the modular pass must reach the check: the odd
    # characters mod 23 have orders 2 and 22, one closed form and one
    # order that is not halved; those mod 401 orders 16, 80 and 400,
    # halved to 2, 10 and 50; and those mod 211 every even order d | 210,
    # none halved, the cubic and quartic forms at 14 and 30 among them:
    # each closed form joins the modular pass
    @pytest.mark.parametrize("m", [23, 211, 401])
    def test_corrupt_check_prime_is_an_internal_error(self, m,
                                                      corrupt_check_prime):
        assert {classnumber._halve(d, a)[0]
                for d, _, a in oracles.folded_orbits(m)} == \
            {23: {2, 22}, 211: {2, 6, 10, 14, 30, 42, 70, 210},
             401: {2, 10, 50}}[m]
        corrupt_check_prime(m)
        with pytest.raises(InternalConsistencyError, match="check prime"):
            hminus(m)

    @pytest.mark.parametrize("m", [23, 211, 401])
    def test_corrupt_evaluation_prime_is_an_internal_error(
            self, m, corrupt_evaluation_prime):
        corrupt_evaluation_prime(m)
        with pytest.raises(InternalConsistencyError, match="check prime"):
            hminus(m)

    def test_corrupt_check_prime_exits_3(self, corrupt_check_prime,
                                         monkeypatch):
        monkeypatch.delenv("CYCLOCLASS_CACHE", raising=False)
        corrupt_check_prime(211)
        code, out, err = answer(["hminus", "--m", "211"])
        assert (code, out) == (3, "")
        assert err.startswith("internal consistency failure: analytic minus")
        assert "Traceback" not in err

    # the odd characters mod 39 have orders 2, 4, 6 and 12, halved to 2, 2,
    # 6 and 6, those mod 113 the orders 16 and 112, halved to 2 and 14,
    # those mod 241 the orders 16, 48, 80 and 240, halved to 2, 6, 10 and
    # 30, and those mod 257 the one order 256, halved to 2: h^- is an
    # exact quotient, and a wrong orbit sum leaves it fractional
    @pytest.mark.parametrize("m", [39, 113, 241, 257])
    def test_corrupt_orbit_sum_is_an_internal_error(self, m,
                                                    corrupt_orbit_sum):
        assert {classnumber._halve(d, a)[0]
                for d, _, a in oracles.folded_orbits(m)} == \
            {39: {2, 6}, 113: {2, 14}, 241: {2, 6, 10, 30}, 257: {2}}[m]
        corrupt_orbit_sum(m)
        with pytest.raises(InternalConsistencyError,
                           match="not a positive integer"):
            hminus(m)

    @pytest.mark.parametrize("m", [39, 257])
    def test_corrupt_orbit_sum_exits_3(self, m, corrupt_orbit_sum,
                                       monkeypatch):
        monkeypatch.delenv("CYCLOCLASS_CACHE", raising=False)
        corrupt_orbit_sum(m)
        code, out, err = answer(["hminus", "--m", str(m)])
        assert (code, out) == (3, "")
        assert err.startswith("internal consistency failure: analytic minus")
        assert "Traceback" not in err

    @pytest.mark.parametrize("m,calls", [(39, 0), (257, 0), (4096, 0),
                                         (1153, 0), (3947, 1), (211, 1)])
    def test_crt_pass_only_for_orders_left_above_ten(self, m, calls,
                                                     monkeypatch):
        # 39, 257 and 4096 = 2^12 halve every orbit to 2, 6 or 10, and
        # 1153 = 9 * 2^7 + 1 to 2, 6 and 18, and read no CRT prime; the one
        # order 3946 of 3947 takes the modular pass, and so do the orders
        # 42, 70 and 210 of 211: _norms sees only the orders 2 mod 4 with
        # phi(e) > 8
        used, seen = [], []
        original_prime, original_norms = classnumber._crt_prime, \
            classnumber._norms

        def record_prime(exponent, primes):
            used.append(exponent)
            return original_prime(exponent, primes)

        def record_norms(d, *args):
            seen.append(d)
            return original_norms(d, *args)

        monkeypatch.setattr(classnumber, "_crt_prime", record_prime)
        monkeypatch.setattr(classnumber, "_norms", record_norms)
        oracles.clear_caches()
        try:
            hminus(m)
        finally:
            oracles.clear_caches()
        assert len(used) == calls
        assert sorted(seen) == {3947: [3946], 211: [42, 70, 210]}.get(m, [])

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

        def counting(units, primes, stored):
            calls.append(prod(p ** e for p, e, *_ in units))
            return original(units, primes, stored)

        monkeypatch.setattr(classnumber, "_odd_orbits", counting)
        oracles.clear_caches()
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


#: h^- over the normalised m <= 600 in one process, in the order named
#: by the argument, one line "m h^-(m)" each
_SHARED_SWEEP = textwrap.dedent("""
    import random, sys
    from cycloclass.classnumber import hminus
    moduli = [m for m in range(1, 601) if m % 4 != 2]
    if sys.argv[1] == "decreasing":
        moduli.reverse()
    elif sys.argv[1] == "shuffled":
        random.Random(39).shuffle(moduli)
    for m in moduli:
        print(m, hminus(m))
""")


class TestConductorParts:
    @pytest.fixture(scope="class")
    def cold(self):
        """h^- at each normalised m <= 600, every cache emptied before it."""
        values = {}
        for m in range(1, 601):
            if m % 4 != 2:
                oracles.clear_caches()
                values[m] = hminus(m)
        oracles.clear_caches()
        return values

    @pytest.mark.parametrize("order", ["increasing", "decreasing",
                                       "shuffled"])
    def test_any_order_gives_the_cold_values(self, cold, order):
        # each order stores other parts, derived at other moduli, and reads
        # them back at their multiples
        proc = subprocess.run([sys.executable, "-c", _SHARED_SWEEP, order],
                              capture_output=True, text=True, timeout=120,
                              env=pins.child_env())
        assert proc.returncode == 0, proc.stderr
        lines = [line.split() for line in proc.stdout.splitlines()]
        assert len(lines) == len(cold)
        assert {int(m): int(h) for m, h in lines} == cold

    def test_a_derived_part_is_read_at_the_multiples(self, monkeypatch):
        # the orbits of 1999 are left to the CRT pass, so its part is the
        # exact quotient derived after the check; 3 and 4 times 1999 then
        # compute no orbit of conductor 1999 and keep their digests
        oracles.clear_caches()
        computed = _recorded_orbits(monkeypatch)
        hminus(1999)
        assert 1999 in classnumber._conductor_parts()
        assert {f for _, f, _ in computed} == {1999}
        computed.clear()
        for m in (5997, 7996):
            assert hashlib.sha256(str(hminus(m)).encode()).hexdigest() == \
                pins.CEILING_DIGESTS[m], m
        assert computed and all(f != 1999 for _, f, _ in computed)
        oracles.clear_caches()

    @pytest.mark.parametrize("m", [255, 257, 1009])
    def test_emptied_caches_empty_the_store(self, m, monkeypatch):
        # as the benchmark's worker empties them before each cold query:
        # a cold h^-(m) then computes every orbit
        hminus(3 * 5 * 17)
        hminus(257)
        hminus(1009)
        oracles.clear_caches()
        assert classnumber._conductor_parts() == {}
        computed = _recorded_orbits(monkeypatch)
        hminus(m)
        assert len(computed) == len(oracles.odd_orbits(m))
        assert classnumber._conductor_parts()

    def test_a_failed_check_stores_no_part(self, corrupt_check_prime):
        # 211 closes its orbits of orders 2, 6, 10, 14 and 30 and leaves
        # those of 42, 70 and 210, all of conductor 211, to the CRT pass
        corrupt_check_prime(211)
        with pytest.raises(InternalConsistencyError, match="check prime"):
            hminus(211)
        assert classnumber._conductor_parts() == {}

    def test_a_part_that_is_no_quotient_is_an_internal_error(
            self, monkeypatch):
        # a CRT value off by one, h^-(3057) + 1, with the part of 1019
        # stored: the check primes see it alike, but h + 1 times the
        # denominator is no multiple of Q w times the part of 1019
        oracles.clear_caches()
        h = hminus(3057)
        oracles.clear_caches()
        hminus(1019)
        original = classnumber._norms

        def off_by_one(d, orbits, cos, modulus):
            return original(d, orbits, cos, modulus) * (h + 1) * \
                pow(h, -1, modulus) % modulus

        monkeypatch.setattr(classnumber, "_norms", off_by_one)
        with pytest.raises(InternalConsistencyError,
                           match="part of the conductor 3057"):
            hminus(3057)
        assert sorted(classnumber._conductor_parts()) == [1019]
        oracles.clear_caches()

    def test_parts_are_stored_in_lowest_terms(self):
        # a / b with b > 0 and b | (2f)^s, a nonzero
        oracles.clear_caches()
        for m in range(3, 301):
            hminus(m)
        parts = classnumber._conductor_parts()
        assert len(parts) > 100
        for f, (a, b) in parts.items():
            assert a and b > 0 and gcd(a, b) == 1, f
            assert (2 * f) ** oracles.totient(f) % b == 0, f
        oracles.clear_caches()


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
                  if arith.modulus(q).phi <= HMINUS_PHI_CEILING
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
