"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact arithmetic; expected digit strings are asserted
digit for digit, order relations via the alternate order, and brute-force
enumeration serves as the independent ground truth.  Run with `pytest -s`
to see the per-criterion lines.
"""

import functools
import itertools
import random
from fractions import Fraction

from helpers import forbidden_factor_reject, random_point, scan_expansion
from negabase import (ADMISSIBLE, REJECTED, DigitString, PairDigit,
                      alt_compare, build_beta2_scheme,
                      build_ito_sadahiro_scheme, build_positive_greedy_scheme,
                      count_representation_branches, eval_beta2_pairs,
                      extremal_prefix, field_from_poly, golden_forbidden_factor_check,
                      greedy_neg_beta,
                      interval_I, is_admissible_greedy, lazy_neg_beta,
                      lex_compare, minimal_alphabet, phi_field, psi_expand,
                      psi_inverse, rational_field, reference_bounds,
                      run_scheme, sample_unique_numbers, symmetric_partner,
                      tribonacci_field)

A, B, C, D = PairDigit(1, 0), PairDigit(1, 1), PairDigit(0, 0), PairDigit(0, 1)


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:02d}] FAIL  {title}")
                raise
            print(f"[criterion {number:02d}] PASS  {title}")
        return run
    return wrap


def _triple_bases():
    return (phi_field(), tribonacci_field(), rational_field(Fraction(7, 4)))


@criterion(1, "three representations of -1/2 in base -phi")
def test_c01_three_representations_of_minus_half():
    phi = phi_field()
    x = phi.element(Fraction(-1, 2))
    greedy = greedy_neg_beta(x)
    lazy = lazy_neg_beta(x)
    isexp = run_scheme(build_ito_sadahiro_scheme(phi), x)
    assert greedy.ok and lazy.ok and isexp.ok
    assert greedy.word == DigitString((), (1, 1, 1, 0, 0, 0))
    assert lazy.word == DigitString((1,), (0, 0, 1, 1, 1, 0))
    assert isexp.word == DigitString((), (1, 0, 0))
    assert len(greedy.word.period) == 6
    assert len(lazy.word.period) == 6
    assert len(isexp.word.period) == 3
    assert alt_compare(lazy.word, isexp.word) == -1
    assert alt_compare(isexp.word, greedy.word) == -1


@criterion(2, "boundary and fixed-point expansions for phi")
def test_c02_boundary_expansions():
    phi = phi_field()
    I = interval_I(phi)
    ten = DigitString((), (1, 0))
    zero_one = DigitString((), (0, 1))
    assert greedy_neg_beta(phi.element(-1)).word == ten
    assert lazy_neg_beta(phi.element(-1)).word == ten
    assert greedy_neg_beta(I.hi).word == zero_one
    assert lazy_neg_beta(I.hi).word == zero_one
    assert greedy_neg_beta(phi.zero()).word == DigitString((0, 1), (1, 0))
    # 11(01)^omega must canonicalize to 1(10)^omega
    assert lazy_neg_beta(phi.zero()).word == DigitString((1,), (1, 0))
    assert lazy_neg_beta(phi.zero()).word == DigitString((1, 1), (0, 1))


@criterion(3, "squared-base schemes reproduce the alternating algorithm")
def test_c03_theorem_consistency():
    rng = random.Random(2026_03)
    for ctx in _triple_bases():
        I = interval_I(ctx)
        gs = build_beta2_scheme(ctx, "greedy")
        ls = build_beta2_scheme(ctx, "lazy")
        for _ in range(200):
            x = random_point(rng, I, interior=False)
            got_g = psi_expand(run_scheme(gs, x, depth=25).word).preperiod
            got_l = psi_expand(run_scheme(ls, x, depth=25).word).preperiod
            assert got_g == scan_expansion(x, 50, True).preperiod
            assert got_l == scan_expansion(x, 50, False).preperiod


@criterion(4, "greedy/lazy digitwise symmetry across the interval midpoint")
def test_c04_symmetry():
    rng = random.Random(2026_04)
    for ctx in _triple_bases():
        I = interval_I(ctx)
        fb = ctx.floor_beta
        for _ in range(200):
            x = random_point(rng, I, interior=False)
            y = symmetric_partner(x)
            zs = greedy_neg_beta(x, depth=50).word.preperiod
            ys = lazy_neg_beta(y, depth=50).word.preperiod
            assert all(a + b == fb for a, b in zip(zs, ys))


@criterion(5, "brute-force extremal prefixes equal greedy/lazy prefixes")
def test_c05_oracle_extremality():
    rng = random.Random(2026_05)
    for ctx in _triple_bases():
        I = interval_I(ctx)
        for _ in range(100):
            x = random_point(rng, I, interior=False)
            assert extremal_prefix(x, 12, "max") == \
                greedy_neg_beta(x, depth=12).word.preperiod
            assert extremal_prefix(x, 12, "min") == \
                lazy_neg_beta(x, depth=12).word.preperiod


def _quadratic_pisot_bases():
    """x^2 - ax - b, 1 <= b <= a <= 6, beta in (a, a+1), and x^2 - ax + b,
    b + 2 <= a <= 7, beta in (a-1, a): every such beta is a Pisot number."""
    for a in range(1, 7):
        for b in range(1, a + 1):
            yield field_from_poly((-b, -a, 1), a, a + 1)
    for a in range(3, 8):
        for b in range(1, a - 1):
            yield field_from_poly((b, -a, 1), a - 1, a)


def test_c05_and_the_theorem_on_quadratic_pisot_bases():
    # at every p/q of I with q <= 5: the extremal prefixes are the greedy and
    # lazy prefixes, and the greedy and lazy words grouped in pairs are the
    # beta^2 schemes' words
    fractions = sorted({Fraction(p, q) for q in range(1, 6) for p in range(-q, q + 1)})
    for ctx in _quadratic_pisot_bases():
        I = interval_I(ctx)
        for x in filter(I.contains, map(ctx.element, fractions)):
            for which, kind, expand in (("max", "greedy", greedy_neg_beta),
                                        ("min", "lazy", lazy_neg_beta)):
                assert extremal_prefix(x, 20, which) == \
                    expand(x, depth=20).word.preperiod, (ctx.min_poly, x, kind)
                assert psi_inverse(expand(x).word) == \
                    run_scheme(build_beta2_scheme(ctx, kind), x).word, (ctx.min_poly, x, kind)


PHI_FORBIDDEN = ([(B, C)], [(B,), (C,)])
MU_FORBIDDEN = ([(B, D), (D, C), (D, D)], [(B, C, D)])


def _sweep_against_oracle(ctx, letters, factors, cycles, max_cycle, max_finite):
    bounds = reference_bounds(ctx)
    for total in range(1, max_cycle + 1):
        for per_len in range(1, total + 1):
            for pre in itertools.product(letters, repeat=total - per_len):
                for per in itertools.product(letters, repeat=per_len):
                    w = DigitString(pre, per)
                    got = is_admissible_greedy(w, ctx, bounds).verdict == ADMISSIBLE
                    want = not forbidden_factor_reject(w, factors, cycles)
                    assert got == want, (pre, per)
    for length in range(1, max_finite + 1):
        for word in itertools.product(letters, repeat=length):
            w = DigitString.finite(word)
            got = is_admissible_greedy(w, ctx, bounds).verdict != REJECTED
            want = not forbidden_factor_reject(w, factors, cycles)
            assert got == want, word


@criterion(6, "admissibility checker matches the forbidden-factor laws")
def test_c06_admissibility_equivalences():
    phi = phi_field()
    mu = tribonacci_field()
    _sweep_against_oracle(phi, (A, B, C), *PHI_FORBIDDEN, max_cycle=6, max_finite=12)
    _sweep_against_oracle(mu, (A, B, C, D), *MU_FORBIDDEN, max_cycle=6, max_finite=8)

    # binary level: block-shape test == pair-compressed greedy admissibility
    greedy_pairs = set(minimal_alphabet(phi).greedy)
    bounds = reference_bounds(phi)
    for length in range(2, 17, 2):
        for bits in itertools.product((0, 1), repeat=length):
            shape_ok = golden_forbidden_factor_check(
                DigitString.finite(bits)).verdict != REJECTED
            pairs = psi_inverse(DigitString.finite(bits))
            if set(pairs.preperiod) <= greedy_pairs:
                pair_ok = is_admissible_greedy(pairs, phi, bounds).verdict != REJECTED
            else:
                pair_ok = False
            assert shape_ok == pair_ok, bits


@criterion(7, "minimal alphabet formulas and the fullness threshold")
def test_c07_alphabet_formulas():
    phi = phi_field()
    mu = tribonacci_field()
    assert minimal_alphabet(phi).greedy == (A, B, C)
    assert minimal_alphabet(phi).max_greedy == C
    info_mu = minimal_alphabet(mu)
    assert info_mu.greedy == (A, B, C, D) and info_mu.full
    # the fullness predicate flips across 1 + sqrt(3) = 2.7320508...
    below = rational_field(Fraction(27, 10))
    above = rational_field(Fraction(28, 10))
    assert not minimal_alphabet(below).full
    assert minimal_alphabet(above).full
    for ctx, q in ((below, Fraction(27, 10)), (above, Fraction(28, 10))):
        m = ctx.floor_beta
        in_window = (2 * q - m) > 0 and (2 * q - m) ** 2 > m * m + 4 * m
        assert minimal_alphabet(ctx).full == in_window
        assert minimal_alphabet(ctx).full == (q * q - m * q - m > 0)


@criterion(8, "the Ito-Sadahiro expansion is never extremal")
def test_c08_is_not_extremal():
    phi = phi_field()
    scheme = build_ito_sadahiro_scheme(phi)
    rng = random.Random(2026_08)
    for _ in range(100):
        x = random_point(rng, scheme.domain)
        d_is = run_scheme(scheme, x, depth=60).word
        d_g = greedy_neg_beta(x, depth=60).word
        d_l = lazy_neg_beta(x, depth=60).word
        assert alt_compare(d_l, d_is) == -1
        assert alt_compare(d_is, d_g) == -1


@criterion(9, "branch counts certify exactly the uniquely representable points")
def test_c09_uniqueness_evidence():
    phi = phi_field()
    I = interval_I(phi)
    # 1000 interior rational points plus the two endpoints of [-1, 1/phi]
    assert count_representation_branches(I.lo, 14) == 1
    assert count_representation_branches(I.hi, 14) == 1
    for j in range(1, 1001):
        x = phi.element(Fraction(-1) + Fraction(8, 5) * Fraction(j, 1001))
        assert count_representation_branches(x, 14) >= 2, j

    mu = tribonacci_field()
    patterns = [(B,), (C,), (B, C), (C, B, B), (B, B, C), (B, C, C),
                (C, C, B), (B, B, B, C), (B, C, B, C, C), (C, B)]
    assert len(patterns) == 10
    for per in patterns:
        x = eval_beta2_pairs(mu, DigitString((), per))
        assert count_representation_branches(x, 12) == 1, per

    for base in (Fraction(14, 5), Fraction(7, 2)):
        records = sample_unique_numbers(rational_field(base), word_length=6,
                                        samples=10, depth=10)
        assert len(records) == 10
        assert all(r.branch_count == 1 for r in records)


@criterion(10, "digit strings order points: alternate for -beta, lex for +beta")
def test_c10_order_preservation():
    phi = phi_field()
    rng = random.Random(2026_10)
    for scheme, compare in ((build_ito_sadahiro_scheme(phi), alt_compare),
                            (build_positive_greedy_scheme(phi), lex_compare)):
        decided = 0
        for _ in range(500):
            x = random_point(rng, scheme.domain)
            y = random_point(rng, scheme.domain)
            s = (x - y).sign()
            if s == 0:
                continue
            if s > 0:
                x, y = y, x
            dx = run_scheme(scheme, x, depth=60).word
            dy = run_scheme(scheme, y, depth=60).word
            c = compare(dx, dy)
            if c == 0:
                continue
            decided += 1
            assert c == -1
        assert decided >= 475  # at least 95% of the sampled pairs settle
