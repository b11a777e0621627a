import random
import re
from bisect import bisect_right
from decimal import Decimal
from fractions import Fraction
from functools import partial
from itertools import product
from math import ceil, gcd, log2

import pytest

import negabase.schemes as schemes
from helpers import (LATTICE_BASES, OFF_LATTICE_BASES, WALK_BASES, random_point,
                     reference_eval_digits, reference_stepper, scan_expansion, scan_steps,
                     tie_offset)
from negabase import (ContextMismatchError, DigitString, DomainError, ExactReal, Interval,
                      PairDigit, Scheme,
                      SchemeCell, all_pair_digits,
                      alt_compare, build_beta2_scheme,
                      build_ito_sadahiro_scheme, build_positive_greedy_scheme,
                      count_representation_branches, digit_subinterval,
                      eval_beta2_pairs, eval_neg_beta, eval_pos_beta,
                      feasible_digits, field_from_poly,
                      greedy_breakpoint, greedy_neg_beta, interval_I,
                      lazy_breakpoint, lazy_neg_beta, lex_compare, minimal_alphabet,
                      pair_predecessor,
                      pair_successor, pair_value, parse_base, psi_expand,
                      rational_field, restricted_scheme, run_scheme,
                      step_max_digit, step_min_digit, symmetric_partner)
from negabase.field import _lattice_powers

A, B, C, D = PairDigit(1, 0), PairDigit(1, 1), PairDigit(0, 0), PairDigit(0, 1)


def _tiled_bases(phi, mu):
    # 7/2 and the non-monic base have L != 1, Tetranacci is uncertified, and
    # 31/3 tiles I with 121 pairs
    return (phi, mu, rational_field(Fraction(14, 5)), rational_field(Fraction(7, 2)),
            field_from_poly(*OFF_LATTICE_BASES["non-monic"]),
            field_from_poly(*LATTICE_BASES["tetranacci"]), rational_field(Fraction(31, 3)))


def _assert_cell_values(ctx, cells):
    """Each cell's value is its pair's value, vector and denominator alike."""
    values = [pair_value(ctx, c.digit) for c in cells]
    assert [(c.value.num, c.value.den) for c in cells] == [(v.num, v.den) for v in values]


def F(*coeffs):
    return tuple(Fraction(c) for c in coeffs)


class TestInterval:
    def test_phi_interval(self, phi):
        I = interval_I(phi)
        assert I.lo.coeffs == F(-1, 0)
        assert I.hi.coeffs == F(-1, 1)     # 1/phi = phi - 1

    def test_minus_beta_r_is_l(self, phi):
        I = interval_I(phi)
        assert (-(phi.beta() * I.hi) - I.lo).sign() == 0
        # the flipped combination r + l*beta is NOT zero
        assert (I.hi + I.lo * phi.beta()).sign() != 0

    def test_subinterval_overlap_big_floor(self):
        # floor(beta) >= 2: I_{a+1} ends strictly before I_{a-1} begins
        ctx = rational_field(Fraction(14, 5))
        for a in range(1, ctx.floor_beta):
            right_of_next = digit_subinterval(ctx, a + 1).hi
            left_of_prev = digit_subinterval(ctx, a - 1).lo
            assert (left_of_prev - right_of_next).sign() > 0

    def test_union_covers_I(self, phi):
        rng = random.Random(5)
        I = interval_I(phi)
        for _ in range(25):
            x = random_point(rng, I)
            assert feasible_digits(x)


class TestSteps:
    def test_min_digit_at_left_end(self, phi):
        I = interval_I(phi)
        d, rem = step_min_digit(I.lo)
        assert d == 1
        assert rem.coeffs == F(-1, 1)    # phi - 1, back inside I

    def test_min_digit_at_right_end(self, phi):
        I = interval_I(phi)
        d, rem = step_min_digit(I.hi)
        assert d == 0
        assert (rem - I.lo).sign() == 0  # the unique feasible digit maps r to l

    def test_max_digit_at_zero(self, phi):
        # both digits are feasible at 0; the max-digit step takes 1
        assert feasible_digits(phi.zero()) == [0, 1]
        d, rem = step_max_digit(phi.zero())
        assert d == 1
        assert rem.coeffs == F(-1, 0)

    def test_outside_interval(self, phi):
        with pytest.raises(DomainError):
            step_min_digit(phi.element(5))


# the greedy and lazy words against the scan over the alphabet
ROUNDING_BASES = {
    "phi": ((-1, -1, 1), 1, 2),
    "tribonacci": ((-1, -1, -1, 1), 1, 2),
    "rt3": ((-2, -2, 1), Fraction(27, 10), Fraction(28, 10)),
    "tetranacci": ((-1, -1, -1, -1, 1), 1, 2),
    # (x^2 - x - 1)(x^2 + 1): uncertified, beta is phi
    "reducible": ((-1, -1, 0, -1, 1), 1, 2),
    "7/4": ((-7, 4), 1, 2),
    "7/2": ((-7, 2), 3, 4),
}


def _rounding_points(ctx, q_max=13):
    """l, r and the rational points p/q of I with q <= q_max."""
    I = interval_I(ctx)
    fractions = {Fraction(p, q) for q in range(1, q_max + 1) for p in range(-q, q + 1)}
    return [I.lo, I.hi] + [x for x in map(ctx.element, sorted(fractions)) if I.contains(x)]


def _vector(step):
    digit, remainder = step
    return digit, remainder.num, remainder.den


@pytest.mark.parametrize("name", sorted(WALK_BASES))
def test_one_rounding_picks_the_extreme_feasible_digit(name):
    ctx = field_from_poly(*WALK_BASES[name])
    for x in _rounding_points(ctx):
        # x and 30 remainders of its greedy orbit, against the alphabet scan
        y = x
        for i in range(31):
            scan = scan_steps(y)
            assert feasible_digits(y) == [a for a, _ in scan], (x, i)
            assert _vector(step_min_digit(y)) == _vector(scan[0]), (x, i)
            assert _vector(step_max_digit(y)) == _vector(scan[-1]), (x, i)
            y = scan[-1 if i % 2 else 0][1]


@pytest.mark.parametrize("name", sorted(ROUNDING_BASES))
def test_greedy_and_lazy_words_match_the_scan(name):
    ctx = field_from_poly(*ROUNDING_BASES[name])
    for x in _rounding_points(ctx):
        assert greedy_neg_beta(x, depth=40).word == scan_expansion(x, 40, True), x
        assert lazy_neg_beta(x, depth=40).word == scan_expansion(x, 40, False), x


# the bases on which greedy and lazy are checked against the beta^2 orbit read in pairs
PAIR_ORBIT_BASES = {
    "phi": ((-1, -1, 1), 1, 2),
    "tribonacci": ((-1, -1, -1, 1), 1, 2),
    "rt3": ((-2, -2, 1), Fraction(27, 10), Fraction(28, 10)),
    "tetranacci": ((-1, -1, -1, -1, 1), 1, 2),
    "7/4": ((-7, 4), 1, 2),
    "non-monic": ((-1, -3, 2), 1, 2),
    "31/3": ((-31, 3), 10, 11),
}


def _psi_expanded(ctx, kind, x, depth, orbit_budget):
    """The greedy or lazy word as the beta^2 scheme's pair word spelled out
    by psi_expand: ceil(n/2) pair steps for n letters, and a finite word cut
    back to the depth or the budget."""
    n = orbit_budget if depth is None else depth
    exp = run_scheme(build_beta2_scheme(ctx, kind), x,
                     None if depth is None else -(-n // 2), -(-orbit_budget // 2))
    word = psi_expand(exp.word)
    if word.is_finite:
        word = DigitString.finite(word.preperiod[:n])
    return word, exp.status, exp.endpoint


@pytest.mark.parametrize("name", sorted(PAIR_ORBIT_BASES))
def test_greedy_and_lazy_are_the_beta2_orbit_read_in_letters(name):
    ctx = field_from_poly(*PAIR_ORBIT_BASES[name])
    default = schemes.DEFAULT_ORBIT_BUDGET
    runs = [(n, default) for n in range(1, 10)] + [(None, n) for n in range(1, 10)] \
        + [(None, default)]
    for x in _rounding_points(ctx, 7):
        for kind, expand in (("greedy", greedy_neg_beta), ("lazy", lazy_neg_beta)):
            for depth, budget in runs:
                exp = expand(x, depth, budget)
                assert (exp.word, exp.status, exp.endpoint) == \
                    _psi_expanded(ctx, kind, x, depth, budget), (x, kind, depth, budget)


def test_one_digit_string_per_expansion(monkeypatch, phi, seven_quarters):
    # by the general constructor or by the orbit word's, which calls no __init__
    made = []
    init, of_orbit = DigitString.__init__, DigitString._of_orbit.__func__

    def counted(self, *args):
        made.append(args)
        init(self, *args)

    def counted_orbit(cls, *args):
        made.append(args)
        return of_orbit(cls, *args)

    monkeypatch.setattr(DigitString, "__init__", counted)
    monkeypatch.setattr(DigitString, "_of_orbit", classmethod(counted_orbit))
    # a period found, a depth, and a budget run out
    runs = ({}, {"depth": 7}, {"depth": 8}, {"orbit_budget": 3}, {"orbit_budget": 4})
    for ctx in (phi, seven_quarters):
        x = ctx.element(Fraction(-1, 2))
        for expand in (greedy_neg_beta, lazy_neg_beta,
                       partial(run_scheme, build_ito_sadahiro_scheme(ctx))):
            for kwargs in runs:
                made.clear()
                expand(x, **kwargs)
                assert len(made) == 1, (ctx.min_poly, expand, kwargs)


class TestGreedyLazy:
    def test_minus_half(self, phi):
        x = phi.element(Fraction(-1, 2))
        g = greedy_neg_beta(x)
        l = lazy_neg_beta(x)
        assert g.word == DigitString((), (1, 1, 1, 0, 0, 0)) and g.ok
        assert l.word == DigitString((1,), (0, 0, 1, 1, 1, 0)) and l.ok

    def test_fixed_points(self, phi):
        I = interval_I(phi)
        ten = DigitString((), (1, 0))
        zero_one = DigitString((), (0, 1))
        assert greedy_neg_beta(phi.element(-1)).word == ten
        assert lazy_neg_beta(phi.element(-1)).word == ten
        assert greedy_neg_beta(I.hi).word == zero_one
        assert lazy_neg_beta(I.hi).word == zero_one

    def test_zero(self, phi):
        assert greedy_neg_beta(phi.zero()).word == DigitString((0, 1), (1, 0))
        # 11(01)^omega canonicalizes to 1(10)^omega
        assert lazy_neg_beta(phi.zero()).word == DigitString((1,), (1, 0))

    def test_depth_mode_matches_period_mode(self, phi):
        x = phi.element(Fraction(-1, 2))
        full = greedy_neg_beta(x)
        cut = greedy_neg_beta(x, depth=17)
        assert cut.word.preperiod == full.word.prefix(17)

    def test_endpoint_flag(self, phi):
        I = interval_I(phi)
        assert greedy_neg_beta(I.lo).endpoint == "l"
        assert greedy_neg_beta(I.hi).endpoint == "r"
        assert greedy_neg_beta(phi.zero()).endpoint is None

    def test_period_not_found_status(self, phi):
        x = phi.element(Fraction(104729, 1048576))
        exp = greedy_neg_beta(x, orbit_budget=40)
        assert exp.status == "period-not-found"
        assert exp.word.is_finite and len(exp.word) == 40

    def test_odd_budget_runs_a_whole_pair(self, phi):
        # a budget of B digits runs ceil(B/2) pair steps: at budget 5 the
        # greedy period of -1/2 closes at digit 6; a prefix cut off by the
        # budget keeps exactly B digits
        x = phi.element(Fraction(-1, 2))
        period = DigitString((), (1, 1, 1, 0, 0, 0))
        expected = {4: (DigitString.finite((1, 1, 1, 0)), "period-not-found"),
                    5: (period, "ok"), 6: (period, "ok")}
        for budget, want in expected.items():
            exp = greedy_neg_beta(x, orbit_budget=budget)
            assert (exp.word, exp.status) == want, budget
        for budget in (4, 5, 6):
            exp = lazy_neg_beta(x, orbit_budget=budget)
            assert exp.status == "period-not-found"
            assert exp.word == DigitString.finite((1, 0, 0, 1, 1, 1)[:budget])

    def test_outside_interval(self, phi):
        with pytest.raises(DomainError):
            greedy_neg_beta(phi.element(2))

    def test_domain_is_tested_before_any_table(self, monkeypatch):
        # the beta^2 scheme of 1001/3 has 111 556 cells and takes seconds to build
        monkeypatch.setattr(schemes, "all_pair_digits", lambda *a: pytest.fail("tables built"))
        ctx = rational_field(Fraction(1001, 3))
        x = ctx.element(Fraction(1, 7))
        text = re.escape(f"x = 1/7 outside {interval_I(ctx)}")
        for expand in (greedy_neg_beta, lazy_neg_beta):
            with pytest.raises(DomainError, match=text):
                expand(x)
            with pytest.raises(DomainError, match=text):   # the domain before the depth
                expand(x, depth=0)


@pytest.mark.parametrize("budget", [0, -3])
def test_an_orbit_budget_below_one_is_refused(budget):
    # by name, before x is tested against the domain and with a depth too:
    # no empty period-not-found word
    ctx = field_from_poly(*LATTICE_BASES["phi"])
    scheme = build_ito_sadahiro_scheme(ctx)
    runs = (greedy_neg_beta, lazy_neg_beta, partial(run_scheme, scheme))
    for run in runs:
        for x, depth in ((ctx.element(Fraction(-1, 2)), None), (ctx.element(10), None),
                         (ctx.element(Fraction(-1, 2)), 3)):
            with pytest.raises(ValueError) as err:
                run(x, depth, orbit_budget=budget)
            assert type(err.value) is ValueError, (run, x)
            assert str(err.value) == "orbit_budget must be at least 1"
    for run in runs:
        assert run(ctx.element(Fraction(-1, 2)), orbit_budget=1).status == "period-not-found"


class TestBeta2Schemes:
    def test_phi_greedy_cells(self, phi):
        scheme = build_beta2_scheme(phi, "greedy")
        cells = scheme.cells
        assert [c.digit for c in cells] == [A, B, C, D]
        assert [c.interval.lo.coeffs for c in cells] == [
            F(-1, 0), F(1, -1), F(-2, 1), F(0, 0)]
        assert [c.interval.lo_closed for c in cells] == [True] * 4
        assert [c.interval.hi_closed for c in cells] == [False, False, False, True]
        assert cells[-1].interval.hi.coeffs == F(-1, 1)
        # digit values -b*beta + a
        assert [c.value.coeffs for c in cells] == [
            F(0, -1), F(1, -1), F(0, 0), F(1, 0)]

    def test_phi_lazy_cells(self, phi):
        scheme = build_beta2_scheme(phi, "lazy")
        cells = scheme.cells
        assert [c.digit for c in cells] == [A, B, C, D]
        assert [c.interval.hi.coeffs for c in cells] == [
            F(-2, 1), F(0, 0), F(-3, 2), F(-1, 1)]
        assert [c.interval.lo_closed for c in cells] == [True, False, False, False]
        assert [c.interval.hi_closed for c in cells] == [True] * 4

    def test_greedy_breakpoints_are_the_greedy_cell_starts(self, phi, mu):
        for ctx in _tiled_bases(phi, mu):
            cells = build_beta2_scheme(ctx, "greedy").cells
            starts = [greedy_breakpoint(ctx, c.digit) for c in cells]
            assert [c.interval.lo for c in cells] == starts
            assert [(c.interval.lo.num, c.interval.lo.den) for c in cells] == [
                (s.num, s.den) for s in starts]
            _assert_cell_values(ctx, cells)

    def test_lazy_breakpoints_are_the_lazy_cell_ends(self, phi, mu):
        for ctx in _tiled_bases(phi, mu):
            cells = build_beta2_scheme(ctx, "lazy").cells
            ends = [lazy_breakpoint(ctx, c.digit) for c in cells]
            assert [c.interval.hi for c in cells] == ends
            assert [(c.interval.hi.num, c.interval.hi.den) for c in cells] == [
                (e.num, e.den) for e in ends]
            _assert_cell_values(ctx, cells)

    def test_a_bad_kind_is_refused_before_any_table(self, monkeypatch):
        # 3001/3 has 1002^2 pairs, seconds of work: a bad kind builds none
        def refuse(ctx):
            raise AssertionError("built a table of the pair alphabet")

        monkeypatch.setattr(schemes, "all_pair_digits", refuse)
        ctx = rational_field(Fraction(3001, 3))
        with pytest.raises(ValueError, match="^kind must be 'greedy' or 'lazy'$"):
            build_beta2_scheme(ctx, "bogus")

    def test_discontinuity_count(self, phi):
        # (#A)^2 - 1 interior breakpoints
        scheme = build_beta2_scheme(phi, "greedy")
        assert len(scheme.cells) - 1 == (phi.floor_beta + 1) ** 2 - 1

    def test_pair_order_matches_breakpoint_and_value_order(self, phi, mu):
        from negabase import all_pair_digits, greedy_breakpoint, pair_value

        for ctx in (phi, mu, rational_field(Fraction(14, 5))):
            pairs = all_pair_digits(ctx)
            for p, q in zip(pairs, pairs[1:]):
                assert (greedy_breakpoint(ctx, q) - greedy_breakpoint(ctx, p)).sign() > 0
                assert (pair_value(ctx, q) - pair_value(ctx, p)).sign() > 0

    def test_successor_predecessor(self, phi):
        assert pair_successor(phi, A) == B
        assert pair_predecessor(phi, D) == C
        with pytest.raises(ValueError):
            pair_successor(phi, D)
        with pytest.raises(ValueError):
            pair_predecessor(phi, A)

    def test_neighbours_outside_the_alphabet(self, phi):
        for neighbour in (pair_successor, pair_predecessor):
            with pytest.raises(ValueError,
                               match=r"^pair digit PairDigit\(b=5, a=5\) outside the alphabet$"):
                neighbour(phi, PairDigit(5, 5))
        with pytest.raises(ValueError, match="^the maximal pair digit has no successor$"):
            pair_successor(phi, D)
        with pytest.raises(ValueError, match="^the minimal pair digit has no predecessor$"):
            pair_predecessor(phi, A)

    def test_breakpoints_outside_the_alphabet(self, phi):
        for breakpoint in (greedy_breakpoint, lazy_breakpoint):
            for bad in (PairDigit(5, 5), (-1, 0), ("a", 0)):
                with pytest.raises(ValueError, match="^" + re.escape(
                        f"pair digit {bad} outside the alphabet") + "$"):
                    breakpoint(phi, bad)

    def test_plain_tuples_name_pair_digits(self, phi, mu):
        for ctx in (phi, mu, rational_field(Fraction(14, 5))):
            pairs = all_pair_digits(ctx)
            for p in pairs:
                for f in (greedy_breakpoint, lazy_breakpoint):
                    assert f(ctx, tuple(p)) == f(ctx, p)
            assert pair_successor(ctx, tuple(pairs[0])) == pairs[1]
            assert pair_predecessor(ctx, tuple(pairs[-1])) == pairs[-2]

    def test_pair_components_count_by_equality(self, phi):
        for p in ((1.0, 0), (Fraction(1), 0), (True, 0)):
            assert greedy_breakpoint(phi, p) == greedy_breakpoint(phi, A)
            assert lazy_breakpoint(phi, p) == lazy_breakpoint(phi, A)
            assert pair_successor(phi, p) == B
        for bad in ((1.5, 0), ("1", 0), [1, 0], (1, 0, 0)):
            with pytest.raises(ValueError, match="^" + re.escape(
                    f"pair digit {bad} outside the alphabet") + "$"):
                greedy_breakpoint(phi, bad)

    def test_pair_places_match_the_range_rule(self):
        # a letter's place by its hash and ==, against the rule it replaced:
        # membership and .index in range(fb + 1), which compare by ==
        def by_range(ctx, p):
            digits = range(ctx.floor_beta + 1)
            if isinstance(p, tuple) and len(p) == 2 and p[0] in digits and p[1] in digits:
                return (digits[-1] - digits.index(p[0])) * len(digits) + digits.index(p[1])
            raise ValueError(f"pair digit {p} outside the alphabet")

        def outcome(rule, ctx, p):
            try:
                return rule(ctx, p)
            except ValueError as e:
                return str(e)

        letters = (0, 1, 3, 4, -1, 333333, True, False, 1.0, 3.0, -0.0, 314159.0, Fraction(1),
                   Fraction(3, 2), Decimal(2), 1 + 0j, 1.5, float("nan"), float("inf"),
                   float("-inf"), "1", b"1", None, [1], {1})
        pairs = ([(b, 2) for b in letters] + [(1, a) for a in letters]
                 + [PairDigit(1, 2), (1,), (1, 2, 3), (), [1, 2], "12", None])
        # fb = 3, and fb = 333 333, above hash(inf) = 314 159
        for ctx in (rational_field(Fraction(7, 2)), rational_field(Fraction(1000001, 3))):
            for p in pairs:
                assert outcome(schemes._pair_index, ctx, p) == outcome(by_range, ctx, p), p

    def test_pair_lookups_build_no_table(self, monkeypatch):
        def refuse(ctx):
            raise AssertionError("built a table of the pair alphabet")

        monkeypatch.setattr(schemes, "_pair_tiling", refuse)
        monkeypatch.setattr(schemes, "all_pair_digits", refuse)
        ctx = rational_field(Fraction(3001, 3))
        for breakpoint in (greedy_breakpoint, lazy_breakpoint):
            with pytest.raises(ValueError, match="outside the alphabet$"):
                breakpoint(ctx, (1001, 0))
        assert pair_successor(ctx, (1000, 1000)) == PairDigit(999, 0)
        assert pair_predecessor(ctx, (0, 0)) == PairDigit(1, 1000)
        # in-alphabet pairs, against (-b*beta + a + l)/beta^2 and (... + r)/beta^2 in Fraction
        beta = Fraction(3001, 3)
        l, r = -1000 * beta / (beta * beta - 1), 1000 / (beta * beta - 1)
        for b, a in ((1000, 0), (1000, 1000), (999, 1), (1, 1000), (0, 0), (0, 1000),
                     (1.0, 0)):
            v = -Fraction(b) * beta + a
            assert greedy_breakpoint(ctx, (b, a)).coeffs == ((v + l) / (beta * beta),)
            assert lazy_breakpoint(ctx, (b, a)).coeffs == ((v + r) / (beta * beta),)
        assert greedy_breakpoint(ctx, (1000, 0)).as_text() == "-1125375/1125749"

    def test_left_fixed_point(self, phi):
        I = interval_I(phi)
        exp = run_scheme(build_beta2_scheme(phi, "greedy"), I.lo)
        assert exp.word == DigitString((), (A,))

    def test_right_fixed_point(self, phi):
        I = interval_I(phi)
        exp = run_scheme(build_beta2_scheme(phi, "greedy"), I.hi)
        assert exp.word == DigitString((), (D,))

    def test_pair_string_of_minus_half(self, phi):
        exp = run_scheme(build_beta2_scheme(phi, "greedy"), phi.element(Fraction(-1, 2)))
        assert psi_expand(exp.word) == DigitString((), (1, 1, 1, 0, 0, 0))

    def test_closure_validates_everywhere(self, phi, mu, seven_quarters):
        bases = [phi, mu, seven_quarters, rational_field(Fraction(14, 5)),
                 field_from_poly((-2, -2, 1), Fraction(27, 10), Fraction(28, 10))]
        for ctx in bases:
            for kind in ("greedy", "lazy"):
                build_beta2_scheme(ctx, kind).validate()
            build_ito_sadahiro_scheme(ctx).validate()
            build_positive_greedy_scheme(ctx).validate()


class TestSchemeValidate:
    """One bad scheme per error of Scheme.validate, on the positive map of 5/2."""

    @staticmethod
    def cell(ctx, lo, hi, digit, lo_closed=True, hi_closed=False):
        return SchemeCell(Interval(ctx.element(Fraction(lo)), ctx.element(Fraction(hi)),
                                   lo_closed, hi_closed), digit, ctx.element(digit))

    def scheme(self, *cells):
        ctx = rational_field(Fraction(5, 2))
        domain = Interval(ctx.zero(), ctx.one(), True, False)
        cells = [self.cell(ctx, *c) for c in cells]
        return Scheme(ctx.beta(), domain, tuple(cells))

    def test_good_scheme(self):
        self.scheme(("0", "2/5", 0), ("2/5", "4/5", 1), ("4/5", "1", 2)).validate()

    @pytest.mark.parametrize("cells, text", [
        ((("0", "2", 0),), "cell [0, 2) escapes the domain [0, 1)"),
        ((("0", "2/5", 1), ("2/5", "1", 2)),
         "cell [0, 2/5): image [-1, 0) escapes the domain [0, 1)"),
        ((("2/5", "4/5", 1), ("4/5", "1", 2)), "cells must span the domain"),
        ((("0", "2/5", 0), ("2/5", "4/5", 1, False), ("4/5", "1", 2)),
         "cells do not tile the domain"),
        # a reversed cell: [1/2, 3/5) is covered twice
        ((("0", "2/5", 0), ("2/5", "3/5", 1), ("3/5", "1/2", 1), ("1/2", "4/5", 1),
          ("4/5", "1", 2)), "cell [3/5, 1/2) is out of order"),
        # no cell holds 0, which the domain does
        ((("0", "2/5", 0, False), ("2/5", "4/5", 1), ("4/5", "1", 2)),
         "cells must span the domain"),
        # no cell at all
        ((), "cells must span the domain"),
    ])
    def test_errors(self, cells, text):
        with pytest.raises(ValueError, match="^" + re.escape(text) + "$"):
            self.scheme(*cells).validate()


class TestItoSadahiro:
    def test_domain(self, phi):
        scheme = build_ito_sadahiro_scheme(phi)
        assert scheme.domain.lo.coeffs == F(1, -1)    # -1/phi
        assert scheme.domain.hi.coeffs == F(2, -1)    # 1/phi^2
        assert scheme.domain.lo_closed and not scheme.domain.hi_closed

    def test_minus_half(self, phi):
        exp = run_scheme(build_ito_sadahiro_scheme(phi), phi.element(Fraction(-1, 2)))
        assert exp.word == DigitString((), (1, 0, 0))

    def test_zero(self, phi):
        exp = run_scheme(build_ito_sadahiro_scheme(phi), phi.zero())
        assert exp.word == DigitString((), (0,))

    def test_outside_domain(self, phi):
        with pytest.raises(DomainError):
            run_scheme(build_ito_sadahiro_scheme(phi), phi.element(-1))


class TestEval:
    def test_paper_values(self, phi):
        I = interval_I(phi)
        assert (eval_neg_beta(phi, DigitString((), (1, 0))) + 1).sign() == 0
        assert (eval_neg_beta(phi, DigitString((), (0, 1))) - I.hi).sign() == 0
        val = eval_neg_beta(phi, DigitString((), (1, 1, 1, 0, 0, 0)))
        assert val.coeffs == F(Fraction(-1, 2), 0)

    def test_finite_prefix(self, phi):
        # 11 in base -phi: 1/(-phi) + 1/phi^2
        v = eval_neg_beta(phi, DigitString.finite((1, 1)))
        b = phi.beta()
        expected = -(b.inverse()) + (b * b).inverse()
        assert (v - expected).sign() == 0

    def test_pair_eval_matches_binary_eval(self, phi):
        w = DigitString((B,), (A, C))
        assert (eval_beta2_pairs(phi, w) - eval_neg_beta(phi, psi_expand(w))).sign() == 0

    def test_positive_base(self, phi):
        # (10)^omega in base +phi sums to phi^-1/(1 - phi^-2) = phi/(phi^2-1) = 1
        v = eval_pos_beta(phi, DigitString((), (1, 0)))
        assert (v - 1).sign() == 0

    def test_round_trip_random(self, phi, mu):
        rng = random.Random(17)
        for ctx in (phi, mu):
            I = interval_I(ctx)
            for _ in range(15):
                x = random_point(rng, I, denom=24)
                for algo in (greedy_neg_beta, lazy_neg_beta):
                    exp = algo(x, orbit_budget=100_000)
                    assert exp.ok
                    assert (eval_neg_beta(ctx, exp.word) - x).sign() == 0


# certified, uncertified (Tetranacci), reducible, rational and non-monic
EVAL_BASES = {name: WALK_BASES[name] for name in (
    "phi", "tribonacci", "rt3", "tetranacci", "reducible", "seven-quarters", "fourteen-fifths",
    "seven-halves", "non-monic")}


def _eval_words(rng, alphabet, zero):
    """Finite words, an empty preperiod, one-letter periods and all-zero
    words over the alphabet, whose letter `zero` has the value 0."""
    def word(n):
        return tuple(rng.choice(alphabet) for _ in range(n))

    zero = (zero,)
    yield DigitString((), ())
    yield DigitString.finite(zero * 3)
    yield DigitString((), zero)
    yield DigitString(zero * 2, zero * 3)
    for _ in range(12):
        yield DigitString.finite(word(rng.randrange(1, 12)))
        yield DigitString((), word(rng.randrange(1, 10)))
        yield DigitString(word(rng.randrange(1, 6)), word(1))
        yield DigitString(word(rng.randrange(1, 8)), word(rng.randrange(2, 9)))


@pytest.mark.parametrize("name", sorted(EVAL_BASES))
def test_eval_digits_matches_the_reference(name):
    # the integer Horner passes give the value of the per-digit element
    # route: the same (num, den) on a certified context, where an element
    # has one, and an equal value elsewhere
    ctx = field_from_poly(*EVAL_BASES[name])
    rng = random.Random(38)
    letters = tuple(range(ctx.floor_beta + 1))
    cases = [(-ctx.beta(), letters, 0, None), (ctx.beta(), letters, 0, None),
             (ctx.beta() * ctx.beta(), all_pair_digits(ctx), C, partial(pair_value, ctx))]
    for base, alphabet, zero, value in cases:
        for word in _eval_words(rng, alphabet, zero):
            got = schemes.eval_digits(word, base, value)
            want = reference_eval_digits(word, base, value)
            assert got == want, (base, word)
            if ctx._certified:
                assert (got.num, got.den) == (want.num, want.den), (base, word)


@pytest.mark.parametrize("name", ["phi", "tribonacci", "fourteen-fifths", "non-monic"])
def test_one_inverse_per_word(name, monkeypatch):
    # a periodic word with a preperiod is one division: its value's numerator
    # over (base^q - 1)*base^n, both built in integers
    ctx = field_from_poly(*EVAL_BASES[name])
    word = DigitString((1, 0, 1), (0, 1, 1))
    want = reference_eval_digits(word, -ctx.beta())
    calls = []
    inverse = ExactReal.inverse
    monkeypatch.setattr(ExactReal, "inverse", lambda self: calls.append(self) or inverse(self))
    assert eval_neg_beta(ctx, word) == want
    assert len(calls) == 1


class TestTheoremConsistency:
    def test_squared_base_matches_alternating(self, phi, mu, seven_quarters):
        rng = random.Random(23)
        for ctx in (phi, mu, seven_quarters):
            I = interval_I(ctx)
            gs = build_beta2_scheme(ctx, "greedy")
            ls = build_beta2_scheme(ctx, "lazy")
            # random points, then every digit-subinterval end and beta^2 breakpoint
            points = [random_point(rng, I, interior=False) for _ in range(20)]
            for x in points + [x for _, x in _tie_points(ctx)]:
                g2 = psi_expand(run_scheme(gs, x, depth=15).word)
                l2 = psi_expand(run_scheme(ls, x, depth=15).word)
                assert g2.preperiod == scan_expansion(x, 30, True).preperiod
                assert l2.preperiod == scan_expansion(x, 30, False).preperiod

    def test_symmetry_of_greedy_and_lazy(self, phi, mu, seven_quarters):
        rng = random.Random(29)
        for ctx in (phi, mu, seven_quarters):
            I = interval_I(ctx)
            fb = ctx.floor_beta
            for _ in range(15):
                x = random_point(rng, I, interior=False)
                y = symmetric_partner(x)
                assert interval_I(ctx).contains(y)
                zs = greedy_neg_beta(x, depth=30).word.preperiod
                ys = lazy_neg_beta(y, depth=30).word.preperiod
                assert all(a + b == fb for a, b in zip(zs, ys))

    @pytest.mark.parametrize("name", ["phi", "tribonacci", "rt3", "7/4", "31/3"])
    def test_symmetric_partner_is_l_plus_r_minus_x(self, monkeypatch, name):
        ctx = field_from_poly(*PAIR_ORBIT_BASES[name])
        fb = ctx.floor_beta
        # the formula -floor(beta)/(beta+1) - x, by its inverse of beta + 1
        old = [-(ctx.element(fb) * (ctx.beta() + 1).inverse()) - x
               for x in _rounding_points(ctx, 7)]
        monkeypatch.setattr(ExactReal, "inverse", lambda self: pytest.fail("inverse taken"))
        for x, want in zip(_rounding_points(ctx, 7), old):
            y = symmetric_partner(x)
            assert (y.num, y.den) == (want.num, want.den), x

    def test_lazy_attractor_prefix_form(self, phi):
        # left of the lazy attractor (r-1, r], the lazy word starts (10)^M;
        # the remainder after each pair is phi^2*y + phi, and the loop stops
        # as soon as it clears r - 1 = -1/phi^2
        rng = random.Random(97)
        I = interval_I(phi)
        r_minus_1 = I.hi - 1
        for _ in range(15):
            t = Fraction(rng.randrange(1, 1000), 1000)
            x = I.lo + (r_minus_1 - I.lo) * t      # inside (-1, -1/phi^2)
            y = x
            M = 0
            while (y - r_minus_1).sign() <= 0:
                y = phi.beta() ** 2 * y + phi.beta()
                M += 1
            digits = lazy_neg_beta(x, depth=2 * M + 2).word.preperiod
            assert M >= 1
            assert digits[:2 * M] == (1, 0) * M
            assert digits[2 * M:2 * M + 2] != (1, 0)
            assert digits[2 * M:] == lazy_neg_beta(y, depth=2).word.preperiod

    def test_attractor_prefix_form(self, phi):
        # on [0, 1/phi) the greedy word starts with (01)^M, M minimal
        # positive with x - sum phi^(-2k) < 0
        rng = random.Random(31)
        I = interval_I(phi)
        phi_sq_inv = (phi.beta() * phi.beta()).inverse()
        for _ in range(15):
            t = Fraction(rng.randrange(0, 1000), 1000)
            x = I.hi * t
            rem = x
            M = 0
            term = phi.one()
            while True:
                term = term * phi_sq_inv
                rem = rem - term
                M += 1
                if rem.sign() < 0:
                    break
            digits = greedy_neg_beta(x, depth=2 * M + 2).word.preperiod
            assert digits[:2 * M] == (0, 1) * M
            assert digits[2 * M:2 * M + 2] != (0, 1)
            # the remaining digits expand the rescaled remainder
            carried = rem * (phi.beta() ** (2 * M))
            tail = greedy_neg_beta(carried, depth=2).word.preperiod
            assert digits[2 * M:] == tail


class TestOrderPreservation:
    def test_ito_sadahiro_alternate(self, phi):
        rng = random.Random(37)
        scheme = build_ito_sadahiro_scheme(phi)
        for _ in range(40):
            x = random_point(rng, scheme.domain)
            y = random_point(rng, scheme.domain)
            if (x - y).sign() == 0:
                continue
            if (x - y).sign() > 0:
                x, y = y, x
            dx = run_scheme(scheme, x, depth=40).word
            dy = run_scheme(scheme, y, depth=40).word
            if dx == dy:
                continue
            assert alt_compare(dx, dy) == -1

    def test_renyi_lexicographic(self, phi):
        rng = random.Random(41)
        scheme = build_positive_greedy_scheme(phi)
        for _ in range(40):
            x = random_point(rng, scheme.domain)
            y = random_point(rng, scheme.domain)
            if (x - y).sign() == 0:
                continue
            if (x - y).sign() > 0:
                x, y = y, x
            dx = run_scheme(scheme, x, depth=40).word
            dy = run_scheme(scheme, y, depth=40).word
            if dx == dy:
                continue
            assert lex_compare(dx, dy) == -1


# -- the lattice kernel against the exact step ----------------------------------

ORBIT_DEPTH, ORBIT_BUDGET = 24, 150


def _schemes(ctx):
    return {"is": build_ito_sadahiro_scheme(ctx),
            "beta2-greedy": build_beta2_scheme(ctx, "greedy"),
            "beta2-lazy": build_beta2_scheme(ctx, "lazy"),
            "positive": build_positive_greedy_scheme(ctx),
            "restricted": restricted_scheme(ctx)}


def _tie_points(ctx):
    """(kind, x) for the points whose first step in the orbit `kind` is an
    exact tie: the ends of every digit subinterval, among them l and r, and
    the beta^2 breakpoints.  At l and r the tie is an end of the digit range,
    where the kernel has no cut."""
    pairs = all_pair_digits(ctx)
    points = []
    for a in range(ctx.floor_beta + 1):
        iv = digit_subinterval(ctx, a)
        points += [("greedy", iv.lo), ("lazy", iv.hi)]
    points += [("beta2-greedy", greedy_breakpoint(ctx, p)) for p in pairs[1:]]
    points += [("beta2-lazy", lazy_breakpoint(ctx, p)) for p in pairs[:-1]]
    return points


def _exact_orbit(step, start, key, depth=None):
    """The word and status of a test-side loop of an exact step, whose states
    are keyed as the exact path keys them."""
    digits, state = [], start
    if depth is not None:
        for _ in range(depth):
            d, state = step(state)
            digits.append(d)
        return DigitString.finite(digits), "ok"
    seen = {key(state): 0}
    for n in range(1, ORBIT_BUDGET + 1):
        d, state = step(state)
        digits.append(d)
        i = seen.setdefault(key(state), n)
        if i < n:
            return DigitString.periodic(digits[:i], digits[i:]), "ok"
    return DigitString.finite(digits), "period-not-found"


def _exact_alternating(state):
    # the alphabet scan, not the tilings: the extreme feasible digit
    use_min, y = state
    a, y = scan_steps(y)[0 if use_min else -1]
    return a, (not use_min, y)


def _exact(kind, scheme, x, depth):
    if scheme is None:
        return _exact_orbit(_exact_alternating, (kind == "greedy", x),
                            lambda s: (s[0], s[1].num, s[1].den), depth)
    return _exact_orbit(scheme.step, x, lambda y: (y.num, y.den), depth)


def _kernel(kind, scheme, x, depth):
    if scheme is None:
        fn = greedy_neg_beta if kind == "greedy" else lazy_neg_beta
        exp = fn(x, depth=depth, orbit_budget=ORBIT_BUDGET)
    else:
        exp = run_scheme(scheme, x, depth=depth, orbit_budget=ORBIT_BUDGET)
    return exp.word, exp.status


def _large_denominators(ctx):
    # p/q with q above 2^70: the cut bounds the kernel scales by q once per
    # orbit pass 128 bits
    xs = [Fraction(q // k, q) for q in (2 ** 71 + 1, 3 ** 45) for k in (-7, 5, 11)]
    return [ctx.element(x) for x in xs if x.denominator > 2 ** 70]


def _assert_orbits_match_the_exact_steps(ctx, extra=()):
    # every kind, by depth and by period, from every tie point, every p/q,
    # q <= 7, and every extra point of its domain
    schemes = _schemes(ctx)
    rationals = [ctx.element(Fraction(p, q)) for q in range(1, 8)
                 for p in range(-2 * q, q + 1) if gcd(p, q) == 1]
    points = [x for _, x in _tie_points(ctx)] + rationals + list(extra)
    domains = {"greedy": interval_I(ctx), "lazy": interval_I(ctx)}
    domains.update((kind, s.domain) for kind, s in schemes.items())
    for kind, domain in domains.items():
        scheme = schemes.get(kind)
        for x in filter(domain.contains, points):
            for depth in (ORBIT_DEPTH, None):
                assert _kernel(kind, scheme, x, depth) == _exact(kind, scheme, x, depth), \
                    (kind, x, depth)


@pytest.mark.parametrize("name", sorted(LATTICE_BASES))
def test_lattice_kernel_matches_the_exact_step(name):
    ctx = field_from_poly(*LATTICE_BASES[name])
    assert all(s._lattice is not None for s in _schemes(ctx).values())
    _assert_orbits_match_the_exact_steps(ctx, _large_denominators(ctx))


@pytest.mark.parametrize("name", sorted(LATTICE_BASES))
def test_lattice_states_keep_the_start_denominator(name):
    # over L = 1 no state is reduced: every kernel state is (v, den(x)) with
    # v/den(x) the remainder of the exact step, which is what lets the kernel
    # scale its cut bounds by den(x) once per orbit
    ctx = field_from_poly(*LATTICE_BASES[name])
    rationals = [ctx.element(Fraction(p, q)) for q in range(1, 8)
                 for p in range(-2 * q, q + 1) if gcd(p, q) == 1]
    points = [x for _, x in _tie_points(ctx)] + rationals + _large_denominators(ctx)
    for kind, scheme in _schemes(ctx).items():
        assert scheme._lattice[5] == 1, kind   # L
        for x in filter(scheme.domain.contains, points):
            orbit, state = scheme._stepper(x)
            y = x
            for _ in range(ORBIT_DEPTH):
                d, state = _one_step(orbit, state)
                a, y = scheme.step(y)
                v, D = state
                assert (d, D) == (a, x.den), (kind, x)
                assert [c * y.den for c in v] == [c * D for c in y.num], (kind, x)


@pytest.mark.parametrize("name", sorted(LATTICE_BASES))
def test_lattice_kernel_falls_back_next_to_the_cut_points(name):
    # an exact tie is no fallback: its difference is an exact rational.  A
    # point off a cut by beta - L/2^128 < 2^-128, L/2^128 the lower end of
    # a dyadic bracket of beta, is beyond the 64-bit bounds of the kernel
    # and of the exact filter alike, which counts its fallback.  Next to l
    # and r, the domain test is what falls back
    ctx = field_from_poly(*LATTICE_BASES[name])
    schemes = _schemes(ctx)
    domains = {"greedy": interval_I(ctx), "lazy": interval_I(ctx)}
    eps = tie_offset(ctx)
    for kind, tie in _tie_points(ctx):
        scheme = schemes.get(kind)
        for x in filter((scheme.domain if scheme else domains[kind]).contains,
                        (tie - eps, tie + eps)):
            before = ctx.fallback_count()
            got = _kernel(kind, scheme, x, ORBIT_DEPTH)
            after = ctx.fallback_count()
            assert after > before, (kind, x)
            assert got == _exact(kind, scheme, x, ORBIT_DEPTH), (kind, x)


def _one_step(orbit, state):
    # one step of the compiled orbit loop from state (v, D): (digit, state')
    (d,), start, state = orbit(*state, 1, False)
    assert start is None
    return d, state


def _kernel_counts(ctx):
    return ctx.kernel_fallback_count(), ctx.kernel_tie_count()


def _assert_tie_or_fallback(ctx, before, tie, x, where):
    # where the bounds straddle a cut: at the cut itself the vectors decide
    # the tie, counted as one, and next to it the counted exact path runs
    fallbacks, ties = _kernel_counts(ctx)
    if x == tie:
        assert fallbacks == before[0] and ties > before[1], where
    else:
        assert fallbacks > before[0], where


@pytest.mark.parametrize("name", ["phi", "tribonacci"])
def test_kernel_fallback_count(name):
    # the kernel's own undecided steps: none along the orbits and oracle
    # walks of interior points; at every tie point off l and r a tie decided
    # on the vectors, and tie_offset next to it an exact fallback
    ctx = field_from_poly(*LATTICE_BASES[name])
    I = interval_I(ctx)
    schemes = _schemes(ctx)
    rng = random.Random(name)
    for _ in range(20):
        x = random_point(rng, I)
        for kind in ("greedy", "lazy", *schemes):
            scheme = schemes.get(kind)
            if scheme is None or scheme.domain.contains(x):
                _kernel(kind, scheme, x, 40)
        count_representation_branches(x, 10)
    assert _kernel_counts(ctx) == (0, 0)
    eps = tie_offset(ctx)
    for kind, tie in _tie_points(ctx):
        if tie in (I.lo, I.hi):
            continue
        scheme = schemes.get(kind)
        for x in filter((scheme.domain if scheme else I).contains, (tie - eps, tie, tie + eps)):
            before = _kernel_counts(ctx)
            _kernel(kind, scheme, x, 1)
            _assert_tie_or_fallback(ctx, before, tie, x, (kind, x))


@pytest.mark.parametrize("name", sorted(WALK_BASES))
def test_kernel_decides_every_cut_on_the_vectors(name):
    # one step from each cut of each scheme: the bounds of the state straddle
    # the cut it equals, and the vectors put it in the cell on the cut's
    # closed side, with no exact fallback.  The reducible base's vectors are
    # not canonical (one value has several), so there only the digits and
    # states are checked
    ctx = field_from_poly(*WALK_BASES[name])
    for kind, scheme in _schemes(ctx).items():
        for cell in scheme.cells[:-1]:
            x = cell.interval.hi
            before = _kernel_counts(ctx)
            assert _kernel(kind, scheme, x, 1) == _exact(kind, scheme, x, 1), (kind, x)
            if name != "reducible":
                _assert_tie_or_fallback(ctx, before, x, x, (kind, x))


@pytest.mark.parametrize("args", list(OFF_LATTICE_BASES.values()))
def test_rational_and_non_monic_bases_on_the_kernel(args):
    # 7/4, root(2x^2-3x-1, 1, 2), 14/5, 7/2, 10/3 and root(2x^2-5x-2, 2, 3):
    # no lattice Z[beta] holds their orbits, and the kernel steps them over
    # a growing denominator
    ctx = field_from_poly(*args)
    assert _lattice_powers(ctx) is not None
    assert all(s._lattice is not None for s in _schemes(ctx).values())
    _assert_orbits_match_the_exact_steps(ctx)


@pytest.mark.parametrize("name", sorted(OFF_LATTICE_BASES))
def test_off_lattice_states_are_in_lowest_terms(name):
    # over a common denominator L > 1 every kernel state is (y.num, y.den)
    # of the exact step: the state of a value is unique, so the periods are
    ctx = field_from_poly(*OFF_LATTICE_BASES[name])
    rationals = [ctx.element(Fraction(p, q)) for q in range(1, 8)
                 for p in range(-2 * q, q + 1) if gcd(p, q) == 1]
    points = [x for _, x in _tie_points(ctx)] + rationals
    for kind, scheme in _schemes(ctx).items():
        assert scheme._lattice[5] > 1, kind   # L
        for x in filter(scheme.domain.contains, points):
            orbit, state = scheme._stepper(x)
            y = x
            for _ in range(ORBIT_DEPTH):
                d, state = _one_step(orbit, state)
                a, y = scheme.step(y)
                assert (d, state) == (a, (y.num, y.den)), (kind, x)


def test_off_lattice_kernel_falls_back_at_the_beta2_breakpoints():
    # a rational cut is no dyadic number: its 64-bit bounds straddle it.  The
    # first step from it is a tie on the vectors, and from tie_offset next to
    # it the counted exact fallback
    ctx = field_from_poly(*OFF_LATTICE_BASES["fourteen-fifths"])
    schemes = _schemes(ctx)
    ties = [(kind, x) for kind, x in _tie_points(ctx) if kind.startswith("beta2")]
    assert len(ties) == 2 * 8
    eps = tie_offset(ctx)
    for kind, tie in ties:
        for x in (tie - eps, tie, tie + eps):
            assert schemes[kind].domain.contains(x), (kind, x)
            before = _kernel_counts(ctx)
            got = _kernel(kind, schemes[kind], x, 1)
            _assert_tie_or_fallback(ctx, before, tie, x, (kind, x))
            assert got == _exact(kind, schemes[kind], x, 1), (kind, x)


# -- the compiled kernel against the loop it is written out from ----------------

# every test base, and two large alphabets: the beta^2 schemes of 31/3 have
# 121 cells, the Ito-Sadahiro scheme of 301/3 has 101
KERNEL_BASES = {**WALK_BASES, "thirty-one-thirds": ((-31, 3), 10, 11),
                "three-hundred-one-thirds": ((-301, 3), 100, 101)}


@pytest.mark.parametrize("name", sorted(KERNEL_BASES))
def test_compiled_kernel_matches_the_loop_reference(name):
    # from every cut and end of each domain, tie_offset either side of it and
    # seeded rationals: at each step the same digit, the same state and the
    # same rise of the tie and fallback counters as the loop
    ctx = field_from_poly(*KERNEL_BASES[name])
    rng, eps = random.Random(name), tie_offset(ctx)
    # 301/3 runs its 101-cell schemes, not the beta^2 ones of 101^2 cells
    by_kind = _schemes(ctx) if ctx.floor_beta < 100 else {
        "is": build_ito_sadahiro_scheme(ctx), "positive": build_positive_greedy_scheme(ctx)}
    for kind, scheme in by_kind.items():
        domain = scheme.domain
        ties = [domain.lo, *(c.interval.hi for c in scheme.cells[:-1]), domain.hi]
        points = [y for t in ties for y in (t - eps, t, t + eps)]
        points += [random_point(rng, domain) for _ in range(8)]
        for x in filter(domain.contains, points):
            (orbit, state), (reference, start) = scheme._stepper(x), reference_stepper(scheme, x)
            assert state == start, (kind, x)
            for _ in range(ORBIT_DEPTH):
                before = _kernel_counts(ctx)
                got = _one_step(orbit, state)
                mid = _kernel_counts(ctx)
                assert got == reference(state), (kind, x, state)
                after = _kernel_counts(ctx)
                assert [m - b for b, m in zip(before, mid)] == \
                    [a - m for m, a in zip(mid, after)], (kind, x, state)
                state = got[1]
    assert all(_kernel_counts(ctx)), "no straddle was decided by a tie and by the exact path"


@pytest.mark.parametrize("name", sorted(WALK_BASES))
def test_one_compiled_step_per_context_and_flag(name):
    # the schemes of one base with the same flag L != 1 run one code object:
    # one orbit loop, whose one-step calls are the step
    ctx = field_from_poly(*WALK_BASES[name])
    codes = {}
    for scheme in _schemes(ctx).values():
        orbit, _ = scheme._stepper(scheme.domain.lo)
        codes.setdefault(scheme._lattice[5] != 1, set()).add(orbit.__code__)
    assert [len(c) for c in codes.values()] == [1] * len(codes)


def test_the_compiled_step_holds_no_constant():
    # two bases of degree 2 and L = 1 run one compiled orbit loop: every
    # constant of a base is a name bound per scheme.  7/4 (L = 4) runs another
    codes = []
    for name in ("phi", "rt3"):
        ctx = field_from_poly(*LATTICE_BASES[name])
        scheme = build_ito_sadahiro_scheme(ctx)
        codes.append(scheme._stepper(scheme.domain.lo)[0].__code__)
    a, b = codes
    assert a is b
    assert (a.co_code, a.co_consts, a.co_names) == (b.co_code, b.co_consts, b.co_names)
    scheme = build_ito_sadahiro_scheme(field_from_poly(*OFF_LATTICE_BASES["seven-quarters"]))
    assert scheme._stepper(scheme.domain.lo)[0].__code__ is not a


def _reference_orbit(scheme, x, n, stop=False):
    # the period detection of the loop, in Python over the reference step:
    # every state (v, D) keyed whole.  n steps, or up to the first repeat
    # when stop, and the step m of that repeat with the place where its
    # period starts, or (None, None)
    step, state = reference_stepper(scheme, x)
    digits, seen, repeat = [], {state: 0}, (None, None)
    for m in range(1, n + 1):
        d, state = step(state)
        digits.append(d)
        if seen.setdefault(state, m) != m and repeat[0] is None:
            repeat = m, seen[state]
            if stop:
                break
    return digits, repeat


def _detected(reference, budget):
    # (digits, start) of a period detection cut at the budget
    digits, (m, start) = reference
    return (digits[:m], start) if m is not None and m <= budget else (digits[:budget], None)


# the bases whose orbits of p/q, q <= 3, close within the default budget;
# one orbit each of sqrt(3) and 7/4 (L = 4) runs it out
_CLOSING_BASES = ("phi", "tribonacci", "rt3", "tetranacci", "reducible", "cubic")


@pytest.mark.parametrize("name", sorted(KERNEL_BASES))
def test_the_orbit_loop_matches_a_reference_period_detection(name):
    # _orbit's one call of the compiled loop against a Python loop over the
    # reference step that keys each state (v, D) whole, from the ends, the
    # cuts and every p/q, q <= 4, of each domain: budgets 1-9, which most
    # orbits run out, and depths 1-9; the default budget on the orbits that
    # close in it, and on two that run it out.  Over L != 1 a key without D
    # closes false periods here (7/4's Ito-Sadahiro orbit of -1/2)
    ctx = field_from_poly(*KERNEL_BASES[name])
    by_kind = _schemes(ctx) if ctx.floor_beta < 100 else {
        "is": build_ito_sadahiro_scheme(ctx), "positive": build_positive_greedy_scheme(ctx)}
    rationals = [ctx.element(Fraction(p, q)) for q in range(1, 5)
                 for p in range(-2 * q, q + 1) if gcd(p, q) == 1]
    default, closed = schemes.DEFAULT_ORBIT_BUDGET, 0
    for kind, scheme in by_kind.items():
        domain = scheme.domain
        points = [domain.lo, *(c.interval.hi for c in scheme.cells[:-1]), domain.hi, *rationals]
        for x in filter(domain.contains, points):
            def orbit(depth, budget):
                return schemes._orbit(domain, scheme._ends, x, scheme._stepper,
                                      depth, budget)[:2]
            reference = _reference_orbit(scheme, x, 9)
            for n in range(1, 10):
                assert orbit(None, n) == _detected(reference, n), (kind, x, n)
                assert orbit(n, 1) == (reference[0][:n], n), (kind, x, n)
            if x.den <= 3 and (name in _CLOSING_BASES or kind == "is" and x == rationals[0]
                               and name in ("sqrt3", "seven-quarters")):
                want = _detected(_reference_orbit(scheme, x, default, True), default)
                assert orbit(None, default) == want, (kind, x)
                closed += want[1] is not None
    assert closed or name not in _CLOSING_BASES


def _reference_steps(scheme, x, n):
    # (digits, last state) of n steps of the reference step from x
    step, state = reference_stepper(scheme, x)
    digits = []
    for _ in range(n):
        d, state = step(state)
        digits.append(d)
    return digits, state


# two bases with L = 1 and two with L != 1
_STEP_BASES = ("phi", "tribonacci", "seven-quarters", "non-monic")


@pytest.mark.parametrize("name", _STEP_BASES)
def test_multi_step_calls_match_the_single_step_reference(name):
    # one call of the orbit loop for n = 1..9 steps, odd and even, against
    # n reference steps: the same digits and the same last state, on every
    # scheme kind, from the cuts and ends of each domain, tie_offset either
    # side of them, and seeded points
    ctx = field_from_poly(*KERNEL_BASES[name])
    rng, eps = random.Random(name), tie_offset(ctx)
    for kind, scheme in _schemes(ctx).items():
        domain = scheme.domain
        ties = [domain.lo, *(c.interval.hi for c in scheme.cells[:-1]), domain.hi]
        points = [y for t in ties for y in (t - eps, t, t + eps)]
        points += [random_point(rng, domain) for _ in range(4)]
        for x in filter(domain.contains, points):
            orbit, (v, D) = scheme._stepper(x)
            reference = _reference_steps(scheme, x, 9)
            for n in range(1, 10):
                digits, start, state = orbit(v, D, n, False)
                assert start is None
                assert (digits, state) == _reference_steps(scheme, x, n), (kind, x, n)
                assert digits == reference[0][:n], (kind, x, n)


@pytest.mark.parametrize("name", _STEP_BASES)
def test_a_period_closes_at_its_budget_and_not_one_step_before(name):
    # with the budget B the step m of the reference's first repeat, the loop
    # closes the period at exactly B steps; with B = m - 1 it runs out with
    # the first m - 1 digits.  Repeats at odd and at even steps both occur
    ctx = field_from_poly(*KERNEL_BASES[name])
    rationals = [ctx.element(Fraction(p, q)) for q in range(1, 6)
                 for p in range(-2 * q, q + 1) if gcd(p, q) == 1]
    parities = set()
    for kind, scheme in _schemes(ctx).items():
        domain = scheme.domain
        points = [domain.lo, *(c.interval.hi for c in scheme.cells[:-1]), domain.hi, *rationals]
        for x in filter(domain.contains, points):
            digits, (m, start) = _reference_orbit(scheme, x, 200, True)
            if m is None:
                continue
            parities.add(m % 2)
            orbit, (v, D) = scheme._stepper(x)
            assert orbit(v, D, m, True)[:2] == (digits, start), (kind, x, m)
            if m > 1:
                assert orbit(v, D, m - 1, True)[:2] == (digits[:m - 1], None), (kind, x, m)
    assert parities == {0, 1}


@pytest.mark.parametrize("name", _STEP_BASES)
def test_two_steps_next_to_a_cut_of_the_square(name):
    # from (v_a + c_j)/base, the point of cell a that the scheme's map sends
    # to the cut c_j, and tie_offset either side of it: the same two digits
    # and the same state as two reference steps, the second a tie or the
    # exact fallback
    ctx = field_from_poly(*KERNEL_BASES[name])
    eps, tested = tie_offset(ctx), 0
    for kind, scheme in _schemes(ctx).items():
        inverse = scheme.base.inverse()
        for cell in scheme.cells:
            for cut in (c.interval.hi for c in scheme.cells[:-1]):
                q = (cell.value + cut) * inverse
                if q in (cell.interval.lo, cell.interval.hi) or not cell.interval.contains(q):
                    continue
                for x in (q - eps, q, q + eps):
                    orbit, (v, D) = scheme._stepper(x)
                    assert orbit(v, D, 2, False)[::2] == _reference_steps(scheme, x, 2), (kind, x)
                    tested += 1
    assert tested


@pytest.mark.parametrize("name", ["phi", "tribonacci", "rt3", "seven-quarters"])
def test_one_bisection_per_two_steps(name, monkeypatch):
    # the loop searches the square of each scheme: n steps from an interior
    # point make ceil(n/2) bisections, on a copy of every scheme whose loop
    # binds a counting bisect_right
    calls = []
    monkeypatch.setattr(schemes, "bisect_right", lambda *a: calls.append(1) or bisect_right(*a))
    ctx = field_from_poly(*KERNEL_BASES[name])
    for kind, built in _schemes(ctx).items():
        scheme = Scheme(built.base, built.domain, built.cells)
        x = random_point(random.Random(kind), scheme.domain)
        orbit, (v, D) = scheme._stepper(x)
        for n in (1, 2, 9, 10):
            del calls[:]
            orbit(v, D, n, False)
            assert len(calls) == (n + 1) // 2, (kind, n)


@pytest.mark.parametrize("name", ["phi", "rt3", "cubic", "seven-quarters", "non-monic-wide"])
def test_the_square_cut_bounds_hold_the_exact_cuts(name):
    # between neighbouring cells (a, b) and (c, d) of a scheme's square the
    # cut is the single cut of cell a where a != c, else (v_a + c_j)/base, j
    # the lower of b and d: each lies within its 64-bit bounds, the cuts and
    # both bounds do not decrease, as bisection needs (a cut of a cell of no
    # length has bounds of its own, out of order with its neighbour's until
    # they are made monotone), and the pairs run over every cell a in order
    ctx = field_from_poly(*KERNEL_BASES[name])
    for kind, scheme in _schemes(ctx).items():
        lo, hi, *cell_pairs = scheme._square
        pairs = list(zip(*cell_pairs))
        cells, inverse = scheme.cells, scheme.base.inverse()
        cuts = [cells[a].interval.hi if a != c else
                (cells[a].value + cells[min(b, d)].interval.hi) * inverse
                for (a, b), (c, d) in zip(pairs, pairs[1:])]
        assert len(lo) == len(hi) == len(cuts), kind
        for k, cut in enumerate(cuts):
            assert Fraction(lo[k], 2 ** 64) <= cut <= Fraction(hi[k], 2 ** 64), (kind, k)
        assert all(x <= y for x, y in zip(cuts, cuts[1:])), kind
        assert list(lo) == sorted(lo) and list(hi) == sorted(hi), kind
        assert sorted({a for a, _ in pairs}) == list(range(len(cells))), kind
        assert [a for a, _ in pairs] == sorted(a for a, _ in pairs), kind


@pytest.mark.parametrize("name", ["phi", "seven-quarters"])
def test_a_square_past_its_cap_is_the_single_cuts(name, monkeypatch):
    # past _SQUARE_CELLS cells a scheme's square is its own cuts, each cell a
    # paired with no b, so the first step of an iteration is the bisection of
    # the single cuts and the second searches them too: the digits, states and
    # periods of the reference, and one bisection per step, on a copy of every
    # scheme with more cells than the bound (1) or a square past it (its own
    # cells)
    calls = []
    monkeypatch.setattr(schemes, "bisect_right", lambda *a: calls.append(1) or bisect_right(*a))
    ctx = field_from_poly(*KERNEL_BASES[name])
    rationals = [ctx.element(Fraction(p, q)) for q in range(1, 5)
                 for p in range(-2 * q, q + 1) if gcd(p, q) == 1]
    for (kind, built), bound in product(_schemes(ctx).items(), ("one", "cells")):
        monkeypatch.setattr(schemes, "_SQUARE_CELLS", 1 if bound == "one" else len(built.cells))
        scheme = Scheme(built.base, built.domain, built.cells)
        domain = scheme.domain
        points = [domain.lo, *(c.interval.hi for c in scheme.cells[:-1]), domain.hi, *rationals]
        for x in filter(domain.contains, points):
            orbit, (v, D) = scheme._stepper(x)
            for n in (1, 2, 7):
                assert orbit(v, D, n, False)[::2] == _reference_steps(scheme, x, n), (kind, x, n)
            digits, (m, start) = _reference_orbit(scheme, x, 200, True)
            if m is not None:
                assert orbit(v, D, 200, True)[:2] == (digits, start), (kind, x)
        x = random_point(random.Random(kind), domain)
        orbit, (v, D) = scheme._stepper(x)
        del calls[:]
        orbit(v, D, 9, False)
        assert len(calls) == 9, kind
        lo, hi, firsts, seconds = scheme._square
        assert (lo, hi) == scheme._lattice[2:4], kind
        assert firsts == list(range(len(scheme.cells))) and seconds == [None] * len(firsts), kind


@pytest.mark.parametrize("name", ["phi", "rt3", "seven-quarters", "non-monic"])
def test_the_domain_test_compares_only_where_the_bounds_straddle(name, monkeypatch):
    # an interior point of I and one of the Ito-Sadahiro domain [l, l + 1)
    # are inside by the 64-bit bounds of the ends alone: no compare.  At the
    # ends, tie_offset either side of them and the open end l + 1 the bounds
    # straddle, and the exact test tags l and r or refuses the point as before.
    # A point of another field, inside the scheme's domain by its bounds, is
    # refused by name
    ctx = field_from_poly(*KERNEL_BASES[name])
    other = field_from_poly(*KERNEL_BASES["rt3" if name == "phi" else "phi"])
    I, eps = interval_I(ctx), tie_offset(ctx)
    scheme = build_ito_sadahiro_scheme(ctx)
    l = scheme.domain.lo
    runs = {"greedy": (partial(greedy_neg_beta, depth=3), I),
            "lazy": (partial(lazy_neg_beta, depth=3), I),
            "is": (partial(run_scheme, scheme, depth=3), scheme.domain)}
    tags = {"greedy": {I.lo: "l", I.hi: "r", I.lo + eps: None, I.hi - eps: None,
                       I.lo - eps: DomainError, I.hi + eps: DomainError}}
    tags["lazy"] = tags["greedy"]
    tags["is"] = {l: "l", l + eps: None, l + 1 - eps: None,
                  l - eps: DomainError, l + 1: DomainError, l + 1 + eps: DomainError}
    calls = []
    compare = ExactReal.compare
    monkeypatch.setattr(ExactReal, "compare", lambda x, y: calls.append(1) or compare(x, y))
    for kind, (run, domain) in runs.items():
        run(random_point(random.Random(name), domain))   # every table built
        for x in (ctx.zero(), random_point(random.Random(kind), domain)):
            del calls[:]
            assert run(x).endpoint is None, (kind, x)
            assert not calls, (kind, x)
        for x, tag in tags[kind].items():
            del calls[:]
            if tag is DomainError:
                with pytest.raises(DomainError):
                    run(x)
            else:
                assert run(x).endpoint == tag, (kind, x)
            assert calls, (kind, x)
    with pytest.raises(ContextMismatchError):
        run_scheme(scheme, other.zero())


def test_locate_bisects_the_cells(monkeypatch):
    # the right ends of 301/3's 10 201 beta^2 greedy cells increase, which
    # validate proves: locate(r) makes the domain test and one bisection
    scheme = build_beta2_scheme(rational_field(Fraction(301, 3)), "greedy")
    n, calls = len(scheme.cells), []
    compare = ExactReal.compare
    monkeypatch.setattr(ExactReal, "compare", lambda x, y: calls.append(1) or compare(x, y))
    assert scheme.locate(scheme.domain.hi) is scheme.cells[-1]
    assert n == 101 ** 2
    assert len(calls) <= 2 * ceil(log2(n)) + 2


def test_degree_one_hundred_on_the_compiled_kernel():
    # the largest degree the parser admits: a dense kernel of 10 000 terms
    ctx = parse_base("root(x^100-x-1, 1, 2)")
    x = ctx.element(Fraction(-1, 3))
    words = [greedy_neg_beta(x, depth=20).word, lazy_neg_beta(x, depth=20).word,
             run_scheme(build_ito_sadahiro_scheme(ctx), x, depth=20).word]
    assert [w.preperiod for w in words] == [(0, 1) * 10, (1, 0) * 10, (0,) * 20]


# -- the word at the orbit's first repeat -----------------------------------------

def _letters(pairs):
    return tuple(c for p in pairs for c in p)


@pytest.mark.parametrize("name", ["phi", "tribonacci", "rt3", "tetranacci", "seven-quarters",
                                  "non-monic", "reducible"])
def test_the_orbit_word_is_the_general_constructor(name):
    # every closed orbit of every scheme from the tie points and every p/q,
    # q <= 7, of its domain, read one letter per step and, on the beta^2
    # schemes, two: on a scheme whose orbits close on their canonical word
    # the orbit word's constructor gives DigitString(pre, per), and so does
    # the expansion.  Tetranacci's and the reducible base's contexts are not
    # certified and take the general path; on the reducible one a value has
    # several states, and the first repeat is not always the canonical word
    ctx = field_from_poly(*WALK_BASES[name])
    rationals = [ctx.element(Fraction(p, q)) for q in range(1, 8)
                 for p in range(-2 * q, q + 1) if gcd(p, q) == 1]
    points = [x for _, x in _tie_points(ctx)] + rationals
    expand = {"beta2-greedy": greedy_neg_beta, "beta2-lazy": lazy_neg_beta}
    closed, differs = 0, 0
    for kind, scheme in _schemes(ctx).items():
        assert scheme._closes == ctx._certified, kind
        for x in filter(scheme.domain.contains, points):
            digits, start, _ = schemes._orbit(scheme.domain, scheme._ends, x, scheme._stepper,
                                              None, ORBIT_BUDGET)
            if start is None:
                continue
            closed += 1
            readings = [(tuple(digits[:start]), tuple(digits[start:]), False,
                         run_scheme(scheme, x, orbit_budget=ORBIT_BUDGET))]
            if kind in expand:
                readings.append((_letters(digits[:start]), _letters(digits[start:]), True,
                                 expand[kind](x, orbit_budget=2 * ORBIT_BUDGET)))
            for pre, per, pairs, exp in readings:
                word, fast = DigitString(pre, per), DigitString._of_orbit(pre, per, pairs)
                assert exp.word == word, (kind, x, pairs)
                if scheme._closes:
                    assert fast == word, (kind, x, pairs)
                differs += fast != word
    assert closed, name
    assert (differs > 0) == (name == "reducible")


@pytest.mark.parametrize("base, kind, x, pre, per, text", [
    ("phi", "lazy", 0, (1, 1), (0, 1), "1(10)"),   # a preperiod one letter short
    ("tribonacci", "greedy", 0, (), (0, 0), "(0)"),   # a period of half the letters
    ("rt3", "greedy", Fraction(-2, 3), (2, 1), (2, 2, 1, 0, 0, 1), "2(122100)")])
def test_the_orbit_word_where_the_letters_are_not_canonical(base, kind, x, pre, per, text):
    # pre per^omega: the pair orbit's letters as its first repeat leaves them
    ctx = field_from_poly(*LATTICE_BASES[base])
    x, scheme = ctx.element(x), build_beta2_scheme(ctx, kind)
    digits, start, _ = schemes._orbit(scheme.domain, scheme._ends, x, scheme._stepper, None,
                                      ORBIT_BUDGET)
    assert (_letters(digits[:start]), _letters(digits[start:])) == (pre, per)
    word = (greedy_neg_beta if kind == "greedy" else lazy_neg_beta)(x).word
    assert str(word) == text
    assert DigitString._of_orbit(pre, per, True) == word == DigitString(pre, per)


# -- one preimage rule cuts every scheme ------------------------------------------

def _rule_bases():
    # every base of tools/identity.py is here, and 31/3, whose I is tiled by 121 pairs
    return ([field_from_poly(*spec) for spec in WALK_BASES.values()]
            + [rational_field(Fraction(5, 2)), rational_field(Fraction(31, 3))])


def _key(x):
    return x.num, x.den


def test_every_cut_is_its_old_formula():
    """The cuts and closed sides each builder had before the one rule:
    IS at (beta/(beta+1) - k)/beta closed on the right, positive at k/beta
    closed on the left, beta^2 greedy and restricted at (v + l)/beta^2,
    lazy at (v + r)/beta^2, and the digit subintervals
    [(a + r)(-1/beta), (a + l)(-1/beta)]."""
    for ctx in _rule_bases():
        beta, I, fb = ctx.beta(), interval_I(ctx), ctx.floor_beta
        binv, b2inv, inv = beta.inverse(), (beta * beta).inverse(), (beta + 1).inverse()
        pairs = all_pair_digits(ctx)
        greedy = minimal_alphabet(ctx).greedy
        old = {"is": ([(beta * inv - k) * binv for k in range(fb, 0, -1)], False),
               "positive": ([ctx.element(k) * binv for k in range(1, fb + 1)], True),
               "beta2-greedy": ([(pair_value(ctx, p) + I.lo) * b2inv for p in pairs[1:]], True),
               "beta2-lazy": ([(pair_value(ctx, p) + I.hi) * b2inv for p in pairs[:-1]], False),
               "restricted": ([(pair_value(ctx, p) + I.lo) * b2inv for p in greedy[1:]], False)}
        for kind, scheme in _schemes(ctx).items():
            cuts, left_closed = old[kind]
            inner = [cell.interval.hi for cell in scheme.cells[:-1]]
            assert list(map(_key, inner)) == list(map(_key, cuts)), (ctx, kind)
            for a, b in zip(scheme.cells, scheme.cells[1:]):
                assert (a.interval.hi_closed, b.interval.lo_closed) \
                    == (not left_closed, left_closed), (ctx, kind)
        for a in range(fb + 1):
            iv = digit_subinterval(ctx, a)
            ends = ((ctx.element(a) + I.hi) * -binv, (ctx.element(a) + I.lo) * -binv)
            assert (_key(iv.lo), _key(iv.hi)) == tuple(map(_key, ends))


def test_every_cut_maps_to_its_end_and_sits_where_the_domain_says():
    """Each cut c between two cells is sent exactly to the builder's end of
    the domain by one of the two cells' maps, and that cell holds c exactly
    when the domain holds the end."""
    for ctx in _rule_bases():
        for kind, scheme in _schemes(ctx).items():
            domain = scheme.domain
            end, closed = ((domain.hi, domain.hi_closed) if kind == "beta2-lazy"
                           else (domain.lo, domain.lo_closed))
            for left, right in zip(scheme.cells, scheme.cells[1:]):
                c = left.interval.hi
                owners = [cell for cell in (left, right) if scheme.base * c - cell.value == end]
                assert len(owners) == 1, (ctx, kind)
                assert (scheme.locate(c) is owners[0]) == closed, (ctx, kind)


def _window_points(ctx):
    I = interval_I(ctx)
    points = [I.lo, I.hi]
    for a in range(ctx.floor_beta + 1):
        iv = digit_subinterval(ctx, a)
        points += [iv.lo, iv.hi]
    points += [x for q in range(1, 14) for p in range(-q * 11, q + 1)
               if gcd(p, q) == 1 and I.contains(x := ctx.element(Fraction(p, q)))]
    return points


@pytest.mark.parametrize("base", ["phi", "tribonacci", "rt3", "tetranacci", "cubic",
                                  "seven-quarters", "non-monic", "31/3"])
def test_the_alternating_window_maps_are_calls_of_the_builder(base):
    """The two one-step maps of base -beta on I, built with the schemes'
    call: the smallest feasible digit cut at the high end, the largest at
    the low end.  Greedy starts with the smallest and lazy with the
    largest, alternating, and both agree with the beta^2 route."""
    ctx = (rational_field(Fraction(31, 3)) if base == "31/3"
           else field_from_poly(*WALK_BASES[base]))
    digits = range(ctx.floor_beta, -1, -1)
    values = [ctx.element(a) for a in digits]
    I = interval_I(ctx)
    smallest = schemes._tiled_scheme(-ctx.beta(), I, digits, values, at_hi=True)
    largest = schemes._tiled_scheme(-ctx.beta(), I, digits, values)
    for x in _window_points(ctx):
        assert smallest.step(x) == step_min_digit(x)
        assert largest.step(x) == step_max_digit(x)
        for first, second, expand in ((smallest, largest, greedy_neg_beta),
                                      (largest, smallest, lazy_neg_beta)):
            word, y = [], x
            for n in range(24):
                d, y = (second if n % 2 else first).step(y)
                word.append(d)
            assert tuple(word) == expand(x, depth=24).word.preperiod, (base, x.as_text())


def test_every_scheme_is_built_once_per_base(phi):
    """Each builder is context-cached: compare, expand --kind is and the
    Ito-Sadahiro automaton share one scheme per base."""
    for build in (build_ito_sadahiro_scheme, build_positive_greedy_scheme, restricted_scheme,
                  lambda ctx: build_beta2_scheme(ctx, "greedy"),
                  lambda ctx: build_beta2_scheme(ctx, "lazy")):
        assert build(phi) is build(phi)
