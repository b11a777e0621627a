import random
import sys
import threading
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import negabase._polys as P
import negabase.field as field
from helpers import (bisection_floor, bisection_sign, divisor_rational_roots,
                     reference_mul)
from negabase import (ContextMismatchError, FieldError, build_beta2_scheme,
                      build_ito_sadahiro_scheme, field_from_poly,
                      greedy_neg_beta, interval_I, lazy_neg_beta, phi_field,
                      rational_field, run_scheme, step_min_digit,
                      tribonacci_field)
from negabase.field import PHI_MIN_POLY, TRIBONACCI_MIN_POLY

TETRANACCI_MIN_POLY = (-1, -1, -1, -1, 1)
# (x^2 - x - 1)(x^2 + 1): beta is phi, but the modulus is reducible
REDUCIBLE_MIN_POLY = (-1, -1, 0, -1, 1)

# min_poly, lo, hi
BASES = {
    "phi": (PHI_MIN_POLY, 1, 2),
    "tribonacci": (TRIBONACCI_MIN_POLY, 1, 2),
    # non-dyadic brackets, rounded outward once
    "rt3": ((-2, -2, 1), Fraction(27, 10), Fraction(28, 10)),
    "phi-wide": (PHI_MIN_POLY, Fraction(1, 3), Fraction(7, 3)),
    # uncertified: degree 4
    "tetranacci": (TETRANACCI_MIN_POLY, 1, 2),
    "reducible": (REDUCIBLE_MIN_POLY, 1, 2),
    # 2x^2 - 3x - 1: the power table has denominator 2
    "half": ((-1, -3, 2), 1, 2),
}


class TestConstruction:
    def test_phi_preset(self, phi):
        assert phi.min_poly == (-1, -1, 1)
        assert phi.floor_beta == 1
        assert phi.degree == 2

    def test_tribonacci_preset(self, mu):
        assert mu.min_poly == (-1, -1, -1, 1)
        assert mu.floor_beta == 1

    def test_presets_are_built_once_across_threads(self, monkeypatch):
        # the preset is read without the lock once built; 8 threads that ask
        # at once get one context per preset, built by one of them
        built, build = [], field.field_from_poly

        def slow_build(poly, lo, hi):
            built.append(tuple(poly))
            time.sleep(0.02)   # keep the other threads waiting on the first build
            return build(poly, lo, hi)

        monkeypatch.setattr(field, "_PRESETS", {})
        monkeypatch.setattr(field, "field_from_poly", slow_build)
        barrier, got = threading.Barrier(8), []

        def ask():
            barrier.wait()
            got.append((phi_field(), tribonacci_field()))

        threads = [threading.Thread(target=ask) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and len(got) == 8
        assert len({id(p) for p, _ in got}) == 1 and len({id(m) for _, m in got}) == 1
        assert sorted(built) == sorted([PHI_MIN_POLY, TRIBONACCI_MIN_POLY])
        assert got[0][0].min_poly == PHI_MIN_POLY and got[0][1].min_poly == TRIBONACCI_MIN_POLY
        assert field._PRESETS == {"phi": got[0][0], "tribonacci": got[0][1]}

    def test_integer_base_rejected(self):
        with pytest.raises(FieldError, match="integer"):
            field_from_poly((-3, 1), 2, 4)

    def test_integer_root_of_higher_degree_rejected(self):
        # x^2 - 9 has the root 3 inside (2, 4)
        with pytest.raises(FieldError, match="integer"):
            field_from_poly((-9, 0, 1), 2, 4)

    def test_no_sign_change(self):
        with pytest.raises(FieldError, match="sign change"):
            field_from_poly(PHI_MIN_POLY, 2, 3)

    def test_two_roots_rejected(self):
        # x^2 - 3x + 2 = (x-1)(x-2): both roots inside (1/2, 5/2)
        with pytest.raises(FieldError):
            field_from_poly((2, -3, 1), Fraction(1, 2), Fraction(5, 2))

    def test_root_below_one_rejected(self):
        # root of 2x - 1 is 1/2
        with pytest.raises(FieldError, match="greater than 1"):
            field_from_poly((-1, 2), 0, 1)
        # brackets reaching past 1: the root 1/2, and the root 1 itself
        with pytest.raises(FieldError, match="greater than 1"):
            field_from_poly((-1, 2), 0, 2)
        with pytest.raises(FieldError, match="greater than 1"):
            field_from_poly((-1, 1), 0, 2)

    def test_rational_base(self):
        q = rational_field(Fraction(7, 4))
        assert q.floor_beta == 1
        assert q.degree == 1
        assert q.beta().as_fraction() == Fraction(7, 4)

    def test_rational_integer_rejected(self):
        with pytest.raises(FieldError, match="integer"):
            rational_field(3)

    def test_constant_poly_rejected(self):
        with pytest.raises(FieldError, match="nonconstant"):
            field_from_poly((5,), 1, 2)

    def test_bracket_tightened_to_one(self):
        ctx = field_from_poly(PHI_MIN_POLY, Fraction(1, 2), 2)
        assert ctx.isolating_interval[0] >= 1

    def test_context_equality(self):
        assert phi_field() == field_from_poly(PHI_MIN_POLY, 1, 2)
        assert phi_field() != tribonacci_field()

    def test_wide_brackets_and_large_coefficients_build_fast(self, monkeypatch):
        # a scan of the bracket's integers or a divisor search of the end
        # coefficients would evaluate the polynomial far more often
        evaluate, calls = P.eval_poly, []

        def counted(p, x):
            calls.append(x)
            if len(calls) > 10_000:
                raise AssertionError("more than 10 000 polynomial evaluations")
            return evaluate(p, x)

        monkeypatch.setattr(P, "eval_poly", counted)
        wide = field_from_poly((-3, 0, 1), 1, 10**12)
        assert wide.floor_beta == 1 and wide.isolating_interval == (1, 10**12)
        # degree 2 with no rational root: certified, whatever the coefficients
        big = field_from_poly((-735134400, -1, 735134400), 1, 2)
        assert big.floor_beta == 1 and big._certified
        with pytest.raises(FieldError, match="base 3 is an integer"):
            field_from_poly((-9, 0, 1), 1, 10**12)
        assert not field_from_poly(REDUCIBLE_MIN_POLY, 1, 2)._certified


class TestRationalRoots:
    def test_sturm_isolation_matches_a_divisor_search(self):
        # planted roots: 0 (the first bisection point), other dyadic
        # bisection points and random fractions, some of them repeated,
        # times a random factor of degree at most 3
        rng = random.Random(2026_10)
        dyadic = [Fraction(k, 2 ** j) for j in range(4) for k in range(-8, 9)]
        planted, tested = set(), 0
        for _ in range(1200):
            poly = tuple(Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(1, 4)))
            poly = P.trim(poly) or (Fraction(1),)
            for _ in range(rng.randint(0, 3)):
                x = (rng.choice(dyadic) if rng.random() < 0.5
                     else Fraction(rng.randint(-12, 12), rng.randint(1, 12)))
                planted.add(x)
                poly = P.mul(poly, (Fraction(-x.numerator), Fraction(x.denominator)))
            if P.degree(poly) < 1:
                continue
            want = sorted(divisor_rational_roots([int(c) for c in poly]))
            assert P.rational_roots(P.sturm_chain(poly)) == want, poly
            tested += 1
        assert tested >= 1000
        assert Fraction(0) in planted and Fraction(-3, 8) in planted

    def test_sturm_chain_is_the_signed_remainder_sequence(self):
        # the chain built the textbook way: p, p', then the negated
        # remainder of the previous two, each up to a positive factor
        rng = random.Random(2026_11)
        for _ in range(300):
            q = (tuple(Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(2, 7)))
                 + (Fraction(rng.choice((-3, -1, 1, 2))),))
            # the squarefree part: q over its gcd with q'
            p = P.monic(P.divmod_poly(q, P.gcd_poly(q, P.derivative(q)))[0])
            want = [p, P.derivative(p)]
            while True:
                rem = P.divmod_poly(want[-2], want[-1])[1]
                if not rem:
                    break
                want.append(P.neg(rem))
            got = P.sturm_chain(p)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert tuple(Fraction(c, abs(g[-1])) for c in g) == tuple(c / abs(w[-1]) for c in w)
            # a repeated factor is divided out first: the chain of p^2 is
            # that of p, up to one sign
            twice = P.sturm_chain(P.mul(p, p))
            sign = 1 if twice[0][-1] * got[0][-1] > 0 else -1
            assert [tuple(sign * c for c in q) for q in twice] == list(got)


class TestSign:
    def test_phi_identity_is_zero(self, phi):
        b = phi.beta()
        assert (b * b - b - 1).sign() == 0

    def test_zero_vector(self, phi):
        assert phi.zero().sign() == 0

    def test_inverse_phi_vs_decimal(self, phi):
        # oracle: bisection on x^2 - x - 1 decides 1/phi - 618/1000
        expected = bisection_sign(PHI_MIN_POLY, 1, 2, (Fraction(-618, 1000) - 1, 1))
        assert expected == 1   # 1/phi = phi - 1
        x = phi.beta().inverse() - Fraction(618, 1000)
        assert x.sign() == expected

    def test_sign_times_negated(self, phi):
        rng = random.Random(7)
        for _ in range(50):
            x = phi.from_coeffs([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                 for _ in range(2)])
            assert x.sign() * (-x).sign() in (0, -1)
            assert (x * x).sign() in (0, 1)

    def test_random_signs_against_bisection(self, mu):
        rng = random.Random(11)
        for _ in range(40):
            coeffs = [Fraction(rng.randint(-20, 20), rng.randint(1, 7))
                      for _ in range(3)]
            x = mu.from_coeffs(coeffs)
            oracle = bisection_sign(TRIBONACCI_MIN_POLY, 1, 2, coeffs)
            if oracle is None:
                assert x.sign() == 0
            else:
                assert x.sign() == oracle


class TestFloor:
    def test_floor_phi(self, phi):
        assert phi.beta().floor() == 1
        assert phi.beta().ceil() == 2

    def test_floor_rational(self, phi):
        assert phi.element(Fraction(7, 2)).floor() == 3

    def test_floor_mu_squared(self, mu):
        # mu^2 is about 3.38; frozen from the bisection oracle
        m2 = mu.beta() * mu.beta()
        assert m2.floor() == 3

    def test_floor_of_exact_integer(self, phi):
        b = phi.beta()
        one = b * b - b   # equals 1 exactly
        assert one.floor() == 1
        assert one.ceil() == 1

    def test_floor_bound_property(self, mu):
        rng = random.Random(3)
        for _ in range(30):
            x = mu.from_coeffs([Fraction(rng.randint(-30, 30), rng.randint(1, 5))
                                for _ in range(3)])
            n = x.floor()
            assert (x - n).sign() >= 0
            assert (x - (n + 1)).sign() < 0


class TestArithmetic:
    def test_phi_squared(self, phi):
        b = phi.beta()
        assert (b * b).coeffs == (Fraction(1), Fraction(1))

    def test_add_zero(self, phi):
        x = phi.from_coeffs([Fraction(2, 3), Fraction(-1, 5)])
        assert (x + phi.zero()).coeffs == x.coeffs

    def test_mu_cubed(self, mu):
        m = mu.beta()
        assert (m ** 3).coeffs == (Fraction(1), Fraction(1), Fraction(1))

    def test_inverse(self, phi):
        b = phi.beta()
        assert (b * b.inverse() - 1).sign() == 0
        # 1/phi = phi - 1
        assert b.inverse().coeffs == (Fraction(-1), Fraction(1))

    def test_division_by_rational(self, mu):
        x = mu.beta() / Fraction(3, 2)
        assert (x * Fraction(3, 2) - mu.beta()).sign() == 0

    def test_division_by_elements(self, mu):
        m = mu.beta()
        x = mu.from_coeffs([Fraction(2, 3), Fraction(-1, 5), 1])
        assert (x / m) * m == x
        assert (m * m) / m == m
        assert 1 / m == m.inverse()
        assert (3 / x) * x == 3

    def test_equal_elements_hash_equally(self):
        # in an uncertified context equal elements can have different vectors
        ctx = field_from_poly(REDUCIBLE_MIN_POLY, 1, 2)
        u = ctx.beta() ** 2 + 1
        one = u * u.inverse()
        assert one.num != ctx.one().num and one == ctx.one()
        assert hash(one) == hash(ctx.one())
        assert len({one, ctx.one()}) == 1

    def test_inverse_modulo_a_factor_of_a_reducible_modulus(self):
        ctx = field_from_poly(REDUCIBLE_MIN_POLY, 1, 2)
        b = ctx.beta()
        # beta^2 + 1 shares the factor x^2 + 1 with the modulus, so it is
        # inverted modulo the other factor, x^2 - x - 1
        x = b * b + 1
        assert x * x.inverse() == 1

    def test_context_mismatch(self, phi, mu):
        with pytest.raises(ContextMismatchError):
            phi.beta() + mu.beta()

    def test_no_floats_accepted(self, phi):
        with pytest.raises(TypeError):
            phi.element(0.5)


_small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@settings(max_examples=60, deadline=None)
@given(st.lists(_small_rationals, min_size=3, max_size=3),
       st.lists(_small_rationals, min_size=3, max_size=3),
       st.lists(_small_rationals, min_size=3, max_size=3))
def test_field_axioms(a, b, c):
    mu = tribonacci_field()
    x, y, z = (mu.from_coeffs(v) for v in (a, b, c))
    assert ((x + y) + z).coeffs == (x + (y + z)).coeffs
    assert ((x * y) * z - x * (y * z)).sign() == 0
    assert (x * (y + z) - (x * y + x * z)).sign() == 0
    assert (x + (-x)).sign() == 0
    if x.sign() != 0:
        assert (x * x.inverse() - 1).sign() == 0


@pytest.mark.parametrize("name", sorted(BASES))
def test_dyadic_brackets_nest_around_beta(name):
    poly, lo, hi = BASES[name]
    ctx = field_from_poly(poly, lo, hi)
    coarser = None
    for bits in (64, 128, 256):
        L, H = ctx.dyadic_bracket(bits)
        # beta is irrational in every base here, so both ends are strict
        assert bisection_sign(poly, lo, hi, (Fraction(-L, 2 ** bits), 1), bits + 64) == 1
        assert bisection_sign(poly, lo, hi, (Fraction(-H, 2 ** bits), 1), bits + 64) == -1
        assert H - L <= 3
        if coarser:
            cbits, cL, cH = coarser
            assert cL << (bits - cbits) <= L and H <= cH << (bits - cbits)
        coarser = bits, L, H


def _random_coeffs(rng, d, height):
    return [Fraction(rng.randint(-height, height), rng.randint(1, 12)) for _ in range(d)]


class TestFilter:
    """sign() and floor() against the plain bisection oracles, including
    elements so close to zero that the 64-bit filter must fall back."""

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_sign_and_floor_against_bisection(self, name):
        poly, lo, hi = BASES[name]
        ctx = field_from_poly(poly, lo, hi)
        rng = random.Random(23)
        for height in (9, 10**6, 2**80):
            for _ in range(15):
                coeffs = _random_coeffs(rng, ctx.degree, height)
                x = ctx.from_coeffs(coeffs)
                assert x.sign() == (bisection_sign(poly, lo, hi, coeffs) or 0), coeffs
                assert x.floor() == bisection_floor(poly, lo, hi, coeffs), coeffs

    def test_fibonacci_differences_force_the_fallback(self):
        # F(n+1) - F(n)*phi = (-1/phi)^n
        phi = field_from_poly(PHI_MIN_POLY, 1, 2)
        before = phi.fallback_count()
        fib = [0, 1]
        while len(fib) < 402:
            fib.append(fib[-1] + fib[-2])
        for n in range(20, 401):
            coeffs = (fib[n + 1], -fib[n])
            x = phi.from_coeffs(coeffs)
            assert x.sign() == (-1) ** n
            assert x.floor() == (-1 if n % 2 else 0)
            if n <= 130:
                assert bisection_sign(PHI_MIN_POLY, 1, 2, coeffs) == (-1) ** n
        assert phi.fallback_count() > before
        # n = 400 needs brackets finer than 512 bits: several doublings ran
        assert phi.refinement_count() > 512

    def test_tribonacci_powers_force_the_fallback(self):
        # (1 + mu - mu^2)^n = (-1/mu)^n
        mu = field_from_poly(TRIBONACCI_MIN_POLY, 1, 2)
        before = mu.fallback_count()
        unit = (Fraction(1), Fraction(1), Fraction(-1))
        v = (Fraction(1), Fraction(0), Fraction(0))
        for n in range(1, 131):
            v = reference_mul(TRIBONACCI_MIN_POLY, v, unit)
            if n >= 20:
                x = mu.from_coeffs(v)
                assert x.sign() == (-1) ** n == bisection_sign(TRIBONACCI_MIN_POLY, 1, 2, v)
        assert mu.fallback_count() > before

    def test_exact_zero_of_a_reducible_modulus(self):
        ctx = field_from_poly(REDUCIBLE_MIN_POLY, 1, 2)
        b = ctx.beta()
        x = b * b - b - 1
        assert any(x.num)
        before = ctx.fallback_count()
        assert x.sign() == 0
        assert x.is_zero()
        assert ctx.fallback_count() == before + 1
        # exact integers with a nonzero vector: the narrowing loop must stop
        for k in (-3, 0, 3, 7):
            assert (x + k).floor() == k
            assert (x + k).ceil() == k

    def test_no_fallback_along_expansions(self):
        for name in ("phi", "tribonacci", "rt3", "tetranacci"):
            ctx = field_from_poly(*BASES[name])
            I = interval_I(ctx)
            ito = build_ito_sadahiro_scheme(ctx)
            beta2 = [build_beta2_scheme(ctx, kind) for kind in ("greedy", "lazy")]
            rng = random.Random(name)
            found = 0
            while found < 20:
                q = rng.randint(2, 40)
                x = ctx.element(Fraction(rng.randint(-2 * q, q), q))
                if not (I.contains(x) and ito.domain.contains(x)):
                    continue
                found += 1
                greedy_neg_beta(x, depth=40)
                lazy_neg_beta(x, depth=40)
                for scheme in [ito] + beta2:
                    run_scheme(scheme, x, depth=40)
            assert ctx.fallback_count() == 0, name


def _lowest_terms(x):
    return x.den > 0 and gcd(x.den, *x.num) == 1


def _sample_elements(ctx, rng):
    xs = [ctx.zero(), ctx.one()]
    for height in (9, 10**9):
        xs += [ctx.from_coeffs(_random_coeffs(rng, ctx.degree, height)) for _ in range(6)]
    return xs


class TestCompare:
    """compare() against the sign of the reduced difference, and integer
    shifts against the element() forms."""

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_compare_is_the_sign_of_the_difference(self, name):
        ctx = field_from_poly(*BASES[name])
        b = ctx.beta()
        xs = _sample_elements(ctx, random.Random(name)) + [b, -b, b * b]
        for x in xs:
            for y in xs + [0, 3, -2, Fraction(-7, 3)]:
                assert x.compare(y) == (x - y).sign()
        # pairs the 64-bit filter cannot split: beta against the lower end
        # of a finer dyadic bracket, and, where beta is phi, F(n+1) against
        # F(n)*beta, which differ by (-1/phi)^n
        fib = [0, 1]
        while len(fib) < 202:
            fib.append(fib[-1] + fib[-2])
        fib_pairs = [(ctx.element(fib[n + 1]), ctx.element(fib[n]) * b) for n in (60, 121, 200)]
        straddles = [(b, ctx.element(Fraction(ctx.dyadic_bracket(bits)[0], 2 ** bits)))
                     for bits in (128, 256)]
        if name in ("phi", "phi-wide", "reducible"):
            straddles += fib_pairs
        for x, y in fib_pairs + straddles:
            assert x.compare(y) == (x - y).sign() == -y.compare(x)
        for x, y in straddles:
            before = ctx.fallback_count()
            x.compare(y)
            assert ctx.fallback_count() > before
        assert [x.compare(y) for x, y in straddles[:2]] == [1, 1]

    def test_compare_decides_an_exact_zero_of_a_reducible_modulus(self):
        ctx = field_from_poly(REDUCIBLE_MIN_POLY, 1, 2)
        b = ctx.beta()
        before = ctx.fallback_count()
        assert (b * b).compare(b + 1) == 0
        assert not (b * b < b + 1) and b * b <= b + 1 and b * b >= b + 1
        # different vectors, one value: == is decided exactly, not by vectors
        assert b * b == b + 1 and b * b != b + 2 and (b * b).num != (b + 1).num
        assert ctx.fallback_count() > before

    @pytest.mark.parametrize("name", sorted(BASES) + ["7/4", "7/2"])
    def test_integer_shifts(self, name):
        if "/" in name:
            ctx = rational_field(Fraction(name))
        else:
            ctx = field_from_poly(*BASES[name])
        for x in _sample_elements(ctx, random.Random(name)):
            for k in (0, 1, -1, 5, -12, 3**40, True, False):
                e = ctx.element(k)
                for got, want in ((x + k, x + e), (x - k, x - e), (k - x, e - x), (k + x, e + x)):
                    assert (got.num, got.den) == (want.num, want.den)
                    assert _lowest_terms(got)


class TestIntegerVectors:
    """Integer-vector arithmetic against the Fraction reference."""

    def _check(self, poly, xs):
        d = len(poly) - 1
        one = (Fraction(1),) + (Fraction(0),) * (d - 1)
        for x in xs:
            assert _lowest_terms(x)
            for y in xs:
                xc, yc = x.coeffs, y.coeffs
                for z, want in ((x + y, tuple(a + b for a, b in zip(xc, yc))),
                                (x - y, tuple(a - b for a, b in zip(xc, yc))),
                                (x * y, reference_mul(poly, xc, yc))):
                    assert z.coeffs == want
                    assert _lowest_terms(z)
            for k in (0, 1, -3, Fraction(4, 9), Fraction(-7, 2), Fraction(1, 4) ** 50):
                z = x * k
                assert z.coeffs == tuple(c * k for c in x.coeffs)
                assert _lowest_terms(z)
            if any(x.num):
                inv = x.inverse()
                assert _lowest_terms(inv)
                assert reference_mul(poly, x.coeffs, inv.coeffs) == one

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_against_the_fraction_reference(self, name):
        poly, lo, hi = BASES[name]
        ctx = field_from_poly(poly, lo, hi)
        self._check(poly, _sample_elements(ctx, random.Random(name)))

    def test_rational_base_orbit_remainders(self, seven_quarters):
        # the remainders of 1/4 under the 7/4 map have denominators 4^k
        x = seven_quarters.element(Fraction(1, 4))
        orbit = [x]
        for _ in range(200):
            orbit.append(step_min_digit(orbit[-1])[1])
        assert orbit[-1].den == 4 ** 201
        xs = orbit[::25] + [orbit[-1], seven_quarters.zero(), -orbit[-1]]
        self._check((-7, 4), xs)

    def test_power_table_denominator(self):
        ctx = field_from_poly((-1, -3, 2), 1, 2)
        b = ctx.beta()
        # beta^2 = (1 + 3 beta) / 2
        assert (b * b).num == (1, 3) and (b * b).den == 2
