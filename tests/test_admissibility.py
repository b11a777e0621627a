import copy
import gc
import itertools
import pickle
import random
import weakref
from fractions import Fraction

import pytest

import negabase.admissibility as adm
import negabase.schemes as schemes
from helpers import (LATTICE_BASES, OFF_LATTICE_BASES, PairReference, all_words,
                     eventually_periodic_words,
                     forbidden_factor_reject, golden_reference,
                     ito_sadahiro_reference, random_point, report_tuple)
from negabase import (ADMISSIBLE, PREFIX_OK, REJECTED, UNDECIDED, AdmissibilityReport,
                      ContextMismatchError,
                      DigitString, Interval, PairDigit, Violation, all_pair_digits,
                      build_beta2_scheme,
                      build_ito_sadahiro_scheme, complement_pairs,
                      eval_neg_beta, field_from_poly,
                      golden_forbidden_factor_check, greedy_breakpoint,
                      interval_I, is_admissible_greedy, is_admissible_lazy,
                      ito_sadahiro_admissible, minimal_alphabet, pair_sort_key, pair_value,
                      parse_word, phi_field, psi_inverse, rational_field, reference_bounds,
                      restricted_scheme, run_scheme, tribonacci_field)

A, B, C, D = PairDigit(1, 0), PairDigit(1, 1), PairDigit(0, 0), PairDigit(0, 1)

PHI_GREEDY_FACTORS = [(B, C)]
PHI_GREEDY_CYCLES = [(B,), (C,)]
PHI_LAZY_FACTORS = [(C, B)]
PHI_LAZY_CYCLES = [(B,), (C,)]
MU_GREEDY_FACTORS = [(B, D), (D, C), (D, D)]
MU_GREEDY_CYCLES = [(B, C, D)]
MU_LAZY_FACTORS = [(C, A), (A, B), (A, A)]
MU_LAZY_CYCLES = [(C, B, A)]


class TestMinimalAlphabet:
    def test_phi(self, phi):
        info = minimal_alphabet(phi)
        assert info.greedy == (A, B, C)
        assert info.max_greedy == C
        assert info.lazy == (B, C, D)
        assert not info.full

    def test_mu(self, mu):
        info = minimal_alphabet(mu)
        assert info.greedy == (A, B, C, D)
        assert info.full

    def test_max_digit_formula(self, phi, mu):
        # the maximal greedy digit is the integer ceil(beta*frac(beta)) - 1
        for ctx in (phi, mu, rational_field(Fraction(14, 5))):
            info = minimal_alphabet(ctx)
            expected = (ctx.beta() * ctx.frac_beta()).ceil() - 1
            assert info.max_greedy == PairDigit(0, expected)

    def test_fullness_flips_at_threshold(self):
        # beta^2 - floor*beta - floor changes sign at 1 + sqrt(3) = 2.732...
        assert not minimal_alphabet(rational_field(Fraction(27, 10))).full
        assert minimal_alphabet(rational_field(Fraction(28, 10))).full

    def test_fullness_matches_interval_formula(self):
        # beta in ((m + sqrt(m^2+4m))/2, m+1) for m = floor(beta)
        for num, den in ((27, 10), (28, 10), (7, 4), (14, 5), (7, 2), (9, 2)):
            q = Fraction(num, den)
            ctx = rational_field(q)
            m = ctx.floor_beta
            in_window = (2 * q - m) > 0 and (2 * q - m) ** 2 > m * m + 4 * m
            assert minimal_alphabet(ctx).full == in_window

    def test_formula_matches_the_definition_on_seeded_bases(self):
        # the pairs with b >= 1 plus the b = 0 pairs with a < beta*frac(beta),
        # full exactly when beta^2 > floor(beta)*beta + floor(beta)
        rng = random.Random(2027)
        bases = [rational_field(Fraction(14, 5)), rational_field(Fraction(39, 10))]   # full
        for _ in range(6):
            a = rng.randint(1, 6)
            b = rng.randint(1, a)   # x^2 - ax - b: beta in (a, a+1), beta*frac(beta) = b
            ctx = field_from_poly((-b, -a, 1), a, a + 1)
            assert (ctx.beta() * ctx.frac_beta()).compare(b) == 0
            bases.append(ctx)
            a = rng.randint(3, 8)
            b = rng.randint(1, a - 2)   # x^2 - ax + b: beta in (a-1, a)
            bases.append(field_from_poly((b, -a, 1), a - 1, a))
            q = rng.randint(2, 9)
            bases.append(rational_field(Fraction(rng.randint(q + 1, 7 * q), q)))
        fulls = set()
        for ctx in bases:
            fb, beta = ctx.floor_beta, ctx.beta()
            threshold = beta * ctx.frac_beta()
            pairs = [PairDigit(b, a) for b in range(fb + 1) for a in range(fb + 1)]
            greedy = sorted((p for p in pairs if p.b >= 1 or threshold.compare(p.a) > 0),
                            key=pair_sort_key)
            info = minimal_alphabet(ctx)
            assert all_pair_digits(ctx) == tuple(sorted(pairs, key=pair_sort_key))
            assert info.greedy == tuple(greedy)
            assert info.lazy == tuple(PairDigit(fb - p.b, fb - p.a) for p in reversed(greedy))
            assert (info.max_greedy, info.min_lazy) == (greedy[-1], info.lazy[0])
            assert info.full == ((beta * beta).compare(beta * fb + fb) > 0)
            fulls.add(info.full)
        assert fulls == {False, True}

    def test_alphabet_size_matches_predicate(self):
        for num, den in ((27, 10), (28, 10), (7, 4), (14, 5), (7, 2)):
            ctx = rational_field(Fraction(num, den))
            info = minimal_alphabet(ctx)
            assert info.full == (len(info.greedy) == (ctx.floor_beta + 1) ** 2)


class TestRestrictedScheme:
    def test_cells_tile_attractor(self, phi, mu):
        # 7/2 and the non-monic base have L != 1; Tetranacci is uncertified;
        # 31/3 has 114 pairs in its minimal alphabet
        for ctx in (phi, mu, rational_field(Fraction(7, 2)),
                    field_from_poly(*OFF_LATTICE_BASES["non-monic"]),
                    field_from_poly(*LATTICE_BASES["tetranacci"]),
                    rational_field(Fraction(31, 3))):
            rs = restricted_scheme(ctx)
            I = interval_I(ctx)
            lows = tuple(c.interval.lo for c in rs.cells)
            highs = tuple(c.interval.hi for c in rs.cells)
            assert (lows[0] - I.lo).sign() == 0
            assert (highs[-1] - (I.lo + 1)).sign() == 0
            for i in range(len(rs.cells) - 1):
                assert (highs[i] - lows[i + 1]).sign() == 0
            gammas = tuple(greedy_breakpoint(ctx, c.digit) for c in rs.cells)
            assert lows == gammas
            assert [(x.num, x.den) for x in lows] == [(g.num, g.den) for g in gammas]
            values = [pair_value(ctx, c.digit) for c in rs.cells]
            assert [(c.value.num, c.value.den) for c in rs.cells] == [
                (v.num, v.den) for v in values]

    def test_restriction_agrees_with_full_scheme(self, phi, mu):
        rng = random.Random(43)
        for ctx in (phi, mu):
            rs = restricted_scheme(ctx)
            scheme = build_beta2_scheme(ctx, "greedy")
            l = interval_I(ctx).lo
            attractor = Interval(l, l + 1, True, False)
            for _ in range(20):
                x = random_point(rng, attractor)
                d, t = rs.step(x)
                d2, t2 = scheme.step(x)
                assert d == d2 and (t - t2).sign() == 0
                assert attractor.contains(t)

    def test_left_continuous_limits(self, phi):
        rs = restricted_scheme(phi)
        # just right of a breakpoint the right-continuous digit jumps,
        # the left-continuous one keeps the lower digit at the breakpoint
        bp = rs.cells[1].interval.lo
        assert build_beta2_scheme(phi, "greedy").locate(bp).digit == B
        assert rs.locate(bp).digit == A


class TestReferenceBounds:
    def test_phi_bounds(self, phi):
        b = reference_bounds(phi)
        assert b.top.word == DigitString((), (C,))
        assert b.mid.word == DigitString((), (B,))
        assert b.settled

    def test_mu_bounds(self, mu):
        b = reference_bounds(mu)
        assert b.top.word == DigitString((), (B, C, D))
        assert b.mid.word == DigitString((), (C, D, B))

    def test_bounds_use_minimal_alphabet(self, phi, mu):
        for ctx in (phi, mu, field_from_poly((-2, -2, 1), Fraction(27, 10),
                                             Fraction(28, 10))):
            info = minimal_alphabet(ctx)
            b = reference_bounds(ctx)
            for exp in (b.top, b.mid):
                digits = set(exp.word.preperiod) | set(exp.word.period)
                assert digits <= set(info.greedy)

    def test_tables_freed_with_the_context(self):
        ctx = rational_field(Fraction(9, 4))
        build_beta2_scheme(ctx, "greedy")
        reference_bounds(ctx, orbit_budget=50)
        ref = weakref.ref(ctx)
        del ctx
        gc.collect()
        assert ref() is None

    def test_rational_base_unsettled(self):
        ctx = rational_field(Fraction(7, 4))
        b = reference_bounds(ctx, orbit_budget=200)
        assert not b.settled


class TestGreedyChecker:
    def test_factor_bc_rejected(self, phi):
        rep = is_admissible_greedy(DigitString.finite((B, C)), phi)
        assert rep.verdict == REJECTED
        assert rep.violation.rule == "mid-digit"
        assert rep.violation.position == 1

    def test_a_power_admissible(self, phi):
        # A^omega is the expansion of the left endpoint itself
        exp_at_l = run_scheme(build_beta2_scheme(phi, "greedy"), interval_I(phi).lo)
        assert exp_at_l.word == DigitString((), (A,))
        rep = is_admissible_greedy(DigitString((), (A,)), phi)
        assert rep.verdict == ADMISSIBLE

    def test_pure_b_and_c_rejected(self, phi):
        assert is_admissible_greedy(DigitString((), (B,)), phi).verdict == REJECTED
        assert is_admissible_greedy(DigitString((), (C,)), phi).verdict == REJECTED

    def test_finite_word_prefix_semantics(self, phi):
        rep = is_admissible_greedy(DigitString.finite((A, B)), phi)
        assert rep.verdict == PREFIX_OK and rep.ok

    def test_digit_outside_alphabet(self, phi):
        with pytest.raises(ValueError):
            is_admissible_greedy(DigitString.finite((D,)), phi)

    def test_mu_forbidden_factors(self, mu):
        for factor in MU_GREEDY_FACTORS:
            rep = is_admissible_greedy(DigitString.finite(factor), mu)
            assert rep.verdict == REJECTED, factor
        rep = is_admissible_greedy(DigitString((), (B, C, D)), mu)
        assert rep.verdict == REJECTED

    def test_mu_bc_strings_admissible(self, mu):
        for per in ((B, C), (B,), (C, B, B), (C,)):
            rep = is_admissible_greedy(DigitString((), per), mu)
            assert rep.verdict == ADMISSIBLE, per

    def test_agrees_with_forbidden_factor_oracle_phi(self, phi):
        bounds = reference_bounds(phi)
        for w in eventually_periodic_words((A, B, C), 5):
            got = is_admissible_greedy(w, phi, bounds).verdict == ADMISSIBLE
            want = not forbidden_factor_reject(w, PHI_GREEDY_FACTORS,
                                               PHI_GREEDY_CYCLES)
            assert got == want, w

    def test_agrees_with_forbidden_factor_oracle_mu(self, mu):
        bounds = reference_bounds(mu)
        for w in eventually_periodic_words((A, B, C, D), 4):
            got = is_admissible_greedy(w, mu, bounds).verdict == ADMISSIBLE
            want = not forbidden_factor_reject(w, MU_GREEDY_FACTORS,
                                               MU_GREEDY_CYCLES)
            assert got == want, w

    def test_soundness_on_scheme_outputs(self, phi, mu, seven_quarters):
        # every greedy squared-base output must pass the checker; bases with
        # period-detected bounds give a definite verdict, the rational base
        # is screened at finite depth
        bases = [phi, mu, seven_quarters,
                 field_from_poly((-2, -2, 1), Fraction(27, 10), Fraction(28, 10))]
        rng = random.Random(47)
        for ctx in bases:
            rs = restricted_scheme(ctx)
            scheme = build_beta2_scheme(ctx, "greedy")
            bounds = reference_bounds(ctx)
            for _ in range(50):
                if bounds.settled:
                    x = random_point(rng, rs.domain, denom=30)
                    exp = run_scheme(scheme, x, orbit_budget=50_000)
                    assert exp.ok
                    rep = is_admissible_greedy(exp.word, ctx, bounds)
                    assert rep.verdict == ADMISSIBLE, (ctx, x.coeffs)
                else:
                    x = random_point(rng, rs.domain)
                    exp = run_scheme(scheme, x, depth=40)
                    rep = is_admissible_greedy(exp.word, ctx, bounds)
                    assert rep.verdict != REJECTED, (ctx, x.coeffs)

    def test_undecided_with_unsettled_bounds(self):
        ctx = rational_field(Fraction(7, 4))
        bounds = reference_bounds(ctx, orbit_budget=3)
        assert not bounds.settled
        info = minimal_alphabet(ctx)
        trigger = next(p for p in info.greedy if p.b >= 1 and p.a == ctx.floor_beta)
        known = bounds.mid.word.preperiod
        w = DigitString((trigger,) + known, (info.greedy[0],))
        rep = is_admissible_greedy(w, ctx, bounds)
        assert rep.verdict == UNDECIDED


class TestLazyChecker:
    def test_factor_cb_rejected(self, phi):
        rep = is_admissible_lazy(DigitString.finite((C, B)), phi)
        assert rep.verdict == REJECTED

    def test_mu_lazy_factors(self, mu):
        for factor in MU_LAZY_FACTORS:
            rep = is_admissible_lazy(DigitString.finite(factor), mu)
            assert rep.verdict == REJECTED, factor

    def test_duality_with_complement(self, phi, mu):
        rng = random.Random(53)
        for ctx, letters in ((phi, (B, C, D)), (mu, (A, B, C, D))):
            fb = ctx.floor_beta
            for _ in range(40):
                pre = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
                per = tuple(rng.choice(letters) for _ in range(rng.randint(1, 4)))
                w = DigitString(pre, per)
                lazy_verdict = is_admissible_lazy(w, ctx).verdict
                greedy_verdict = is_admissible_greedy(
                    complement_pairs(w, fb), ctx).verdict
                assert lazy_verdict == greedy_verdict

    def test_digit_outside_lazy_alphabet(self, phi):
        with pytest.raises(ValueError):
            is_admissible_lazy(DigitString.finite((A,)), phi)


class TestGoldenBinary:
    def test_greedy_string_accepted(self):
        rep = golden_forbidden_factor_check(DigitString((), (1, 1, 1, 0, 0, 0)))
        assert rep.verdict == ADMISSIBLE

    def test_even_zero_gap_rejected(self):
        rep = golden_forbidden_factor_check(DigitString.finite((1, 0, 0, 1)))
        assert rep.verdict == REJECTED
        assert rep.violation.rule == "forbidden-factor"

    def test_constant_suffixes_rejected(self):
        assert golden_forbidden_factor_check(DigitString((), (0,))).verdict == REJECTED
        assert golden_forbidden_factor_check(DigitString((1, 0), (1,))).verdict == REJECTED

    def test_prefix_rules(self):
        assert golden_forbidden_factor_check(DigitString.finite((1, 1, 0))).verdict == REJECTED
        assert golden_forbidden_factor_check(DigitString.finite((0, 1))).verdict == REJECTED
        assert golden_forbidden_factor_check(DigitString.finite((0, 0, 1))).verdict == PREFIX_OK

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            golden_forbidden_factor_check(DigitString.finite((2,)))

    def test_matches_pair_forbidden_factors_on_infinite_words(self):
        # admissible exactly when the pairs avoid 0:1 and the phi forbidden factors
        words = set(eventually_periodic_words((0, 1), 10))
        assert len(words) == 8862
        for w in words:
            pairs = psi_inverse(w)
            want = (set(pairs.preperiod + pairs.period) <= {A, B, C}
                    and not forbidden_factor_reject(pairs, PHI_GREEDY_FACTORS,
                                                    PHI_GREEDY_CYCLES))
            assert (golden_forbidden_factor_check(w).verdict == ADMISSIBLE) == want, w

    def test_odd_words_match_the_two_extension_rule(self, phi):
        # the reference tries both one-letter extensions; the check reads
        # only the 0-extension
        bounds = reference_bounds(phi)
        for length in range(1, 16, 2):
            for bits in itertools.product((0, 1), repeat=length):
                w = DigitString.finite(bits)
                assert (report_tuple(golden_forbidden_factor_check(w))
                        == golden_reference(w, phi, bounds)), bits

    def test_block_where_the_period_repeats(self):
        # the even block 00 of (001)^omega starts in the second copy
        assert golden_forbidden_factor_check(DigitString((), (0, 0, 1))).verdict == REJECTED
        assert golden_forbidden_factor_check(
            DigitString.finite((0, 0, 1, 0, 0, 1))).verdict == REJECTED


class TestItoSadahiroBinary:
    def test_is_string_accepted(self):
        assert ito_sadahiro_admissible(DigitString((), (1, 0, 0))).verdict == ADMISSIBLE

    def test_odd_zero_gap_rejected(self):
        rep = ito_sadahiro_admissible(DigitString.finite((1, 0, 1, 1)))
        assert rep.verdict == REJECTED

    def test_suffix_010_rejected(self):
        rep = ito_sadahiro_admissible(DigitString((1, 1, 0, 1), (0,)))
        assert rep.verdict == REJECTED

    def test_constant_tails_allowed(self):
        assert ito_sadahiro_admissible(DigitString((), (0,))).verdict == ADMISSIBLE
        assert ito_sadahiro_admissible(DigitString((), (1,))).verdict == ADMISSIBLE
        assert ito_sadahiro_admissible(DigitString((1,), (0,))).verdict == ADMISSIBLE
        assert ito_sadahiro_admissible(DigitString((1, 1), (0,))).verdict == ADMISSIBLE

    def test_odd_gap_where_the_period_repeats(self):
        # the gap 101 of 000(01)^omega starts in the second copy
        assert ito_sadahiro_admissible(DigitString((0, 0, 0), (0, 1))).verdict == REJECTED
        assert ito_sadahiro_admissible(
            DigitString.finite((0, 0, 0, 0, 1, 0, 1))).verdict == REJECTED

    def test_matches_the_map_on_infinite_words(self, phi):
        # admissible exactly when the word is the Ito-Sadahiro expansion of its value
        scheme = build_ito_sadahiro_scheme(phi)
        words = set(eventually_periodic_words((0, 1), 8))
        assert len(words) == 1716
        for w in words:
            x = eval_neg_beta(phi, w)
            want = scheme.domain.contains(x) and run_scheme(scheme, x).word == w
            assert (ito_sadahiro_admissible(w).verdict == ADMISSIBLE) == want, w

    def test_every_is_output_is_admissible(self, phi):
        rng = random.Random(59)
        scheme = build_ito_sadahiro_scheme(phi)
        for _ in range(25):
            x = random_point(rng, scheme.domain, denom=40)
            exp = run_scheme(scheme, x, orbit_budget=50_000)
            assert exp.ok
            assert ito_sadahiro_admissible(exp.word).verdict == ADMISSIBLE


@pytest.mark.parametrize("check", [golden_forbidden_factor_check,
                                   ito_sadahiro_admissible])
def test_admissible_words_unroll_to_admissible_prefixes(check):
    # an infinite word the rule admits has no finite prefix it rejects
    rng = random.Random(61)
    admitted = 0
    for _ in range(3000):
        pre = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 6)))
        per = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 5)))
        if check(DigitString(pre, per)).verdict != ADMISSIBLE:
            continue
        admitted += 1
        assert check(DigitString.finite(pre + per * 3)).verdict == PREFIX_OK, (pre, per)
    assert admitted > 100


BINARY_CHECKS = pytest.mark.parametrize("check", [golden_forbidden_factor_check,
                                                  ito_sadahiro_admissible])


@BINARY_CHECKS
@pytest.mark.parametrize("word, named", [
    # the right-to-left scan meets the later digit first
    (DigitString((0, 3, 1), (2,)), 3),
    (DigitString((1, 0), (1, 5, 0, 7)), 5),
    (DigitString((4, 1, 0, 1), (0, 1)), 4),
    (DigitString.finite((0, 1, 2, 1, 0, 1, 9)), 2),
    # the golden check realigns an odd preperiod: the first period letter
    # joins the preperiod and the period is rotated (and doubled when odd),
    # or a finite word takes a 0, before the scan
    (DigitString((0, 0, 2), (1, 3)), 2),
    (DigitString((1,), (0, 4, 5)), 4),
    (DigitString((1,), (6, 0, 1)), 6),
    (DigitString.finite((1, 3, 0, 2, 1)), 3),
], ids=["pre-then-period", "period", "first-letter", "finite", "odd-pre", "odd-pre-odd-period",
        "odd-pre-first-period-letter", "odd-finite"])
def test_the_first_digit_that_is_not_binary_is_named(check, word, named):
    with pytest.raises(ValueError, match=rf"^digit {named} is not binary$"):
        check(word)


@BINARY_CHECKS
def test_an_unhashable_digit_is_a_type_error(check):
    for word in (DigitString((0, [1]), (0,)), DigitString((1, 0), (0, [1])),
                 DigitString.finite(([1], 0, 1))):
        with pytest.raises(TypeError):
            check(word)


@BINARY_CHECKS
def test_true_and_one_point_zero_are_read_as_one(check):
    # as the equal 1 is, verdict, rule and position alike
    for pre, per in (((1, 0, 0), (1, 0)), ((1, 1, 0, 1), (0,)), ((0, 1), (1, 1, 1, 0, 0, 0)),
                     ((1, 0, 1, 1), ()), ((1, 0, 0, 1), ())):
        want = report_tuple(check(DigitString(pre, per)))[:3]
        for one in (True, 1.0):
            word = DigitString(*(tuple(one if x == 1 else x for x in part) for part in (pre, per)))
            assert report_tuple(check(word))[:3] == want, (pre, per, one)


@BINARY_CHECKS
def test_a_rejection_is_an_ordinary_report(check):
    # the report a scan builds without the constructor compares, hashes and
    # pickles as one the constructor builds
    rep = check(DigitString((1, 0, 1, 1), (0,)))
    assert rep.verdict == REJECTED and not rep.ok
    built = AdmissibilityReport(REJECTED, rep.violation)
    assert rep == built and hash(rep) == hash(built) and repr(rep) == repr(built)
    assert pickle.loads(pickle.dumps(rep)) == rep == copy.copy(rep)


# -- the tail automaton against the per-critical-digit reference ------------------

TAIL_BASES = {
    "phi": (phi_field, 6),
    "tribonacci": (tribonacci_field, 6),
    "rt3": (lambda: field_from_poly((-2, -2, 1), Fraction(27, 10), Fraction(28, 10)), 4),
    "cubic": (lambda: field_from_poly((-1, 0, -3, 1), 3, 4), 4),
    "tetranacci": (lambda: field_from_poly((-1, -1, -1, -1, 1), 1, 2), 4),
}

# bases of floor(beta) 1, 2 and 3 for the letter rows, with the longest words
# (in letters) compared in full: 8 letters over 0..3 would be 570 000 words
LETTER_BASES = {
    "tribonacci": (tribonacci_field, 8),
    "rt3": (lambda: field_from_poly((-2, -2, 1), Fraction(27, 10), Fraction(28, 10)), 8),
    "floor3": (lambda: field_from_poly((-1, -3, 1), 3, 4), 6),
}


def words_up_to(alphabet, max_total):
    """Every finite word and every u(v)^omega with |u| + |v| <= max_total."""
    found = set(eventually_periodic_words(alphabet, max_total))
    for n in range(1, max_total + 1):
        found.update(DigitString.finite(w) for w in all_words(alphabet, n))
    return found


def golden_pairs(rng, n):
    """n pairs of phi's greedy alphabet with no factor 1:1.0:0."""
    out = []
    while len(out) < n:
        out.append(rng.choice((A, C) if out and out[-1] == B else (A, B, C)))
    return out


def row_count(starts):
    """Distinct automaton rows reachable from the start rows."""
    seen, stack = {}, list(starts)
    while stack:
        row = stack.pop()
        if id(row) not in seen:
            seen[id(row)] = row
            stack.extend(nxt for nxt, _ in row.values())
    return len(seen)


def not_rejected_counts(ctx, n_max):
    """How many pair words of each length 0..n_max are not REJECTED, by a
    dynamic program over the greedy automaton read right to left."""
    finite_start = reference_bounds(ctx)._tails()[0][0]
    counts, rows = [1], {id(finite_start): (finite_start, 1)}
    for _ in range(n_max):
        nxt_rows = {}
        for row, c in rows.values():
            for nxt, out in row.values():
                if out is None:
                    prev = nxt_rows.get(id(nxt), (nxt, 0))[1]
                    nxt_rows[id(nxt)] = (nxt, prev + c)
        rows = nxt_rows
        counts.append(sum(c for _, c in rows.values()))
    return counts


def real_root(coeffs, lo, hi, bits=80):
    """The root of the integer polynomial in (lo, hi), by exact bisection."""
    f = lambda x: sum(c * x ** i for i, c in enumerate(coeffs))
    lo, hi = Fraction(lo), Fraction(hi)
    for _ in range(bits):
        mid = (lo + hi) / 2
        if (f(lo) > 0) == (f(mid) > 0):
            lo = mid
        else:
            hi = mid
    return float(lo)


class TestTailAutomaton:
    @pytest.mark.parametrize("name", sorted(TAIL_BASES))
    def test_pair_reports_match_the_reference(self, name):
        make, max_total = TAIL_BASES[name]
        ctx = make()
        bounds = reference_bounds(ctx)
        assert bounds.settled
        reference = PairReference(ctx, bounds)
        # the lazy words are the complements of the greedy ones
        for w in words_up_to(minimal_alphabet(ctx).greedy, max_total):
            want = reference(w)
            assert report_tuple(is_admissible_greedy(w, ctx, bounds)) == want, (name, w)
            mirror = complement_pairs(w, ctx.floor_beta)
            assert (report_tuple(is_admissible_lazy(mirror, ctx, bounds))
                    == reference.reread(want, mirror)), (name, mirror)

    @pytest.mark.parametrize("name", sorted(TAIL_BASES))
    def test_per_digit_comparison_matches_the_automaton(self, name):
        # a fresh bound answers its first word by the per-digit comparison,
        # settled bounds by the automaton; one length shorter than above, as
        # every word runs its own orbits
        make, max_total = TAIL_BASES[name]
        ctx = make()
        settled = adm.AdmissibilityBound(ctx, 10_000)
        assert settled.settled and settled._tails() is not None
        for w in words_up_to(minimal_alphabet(ctx).greedy, max_total - 1):
            mirror = complement_pairs(w, ctx.floor_beta)
            for check, word in ((is_admissible_greedy, w), (is_admissible_lazy, mirror)):
                fresh = adm.AdmissibilityBound(ctx, 10_000)
                assert (report_tuple(check(word, ctx, fresh))
                        == report_tuple(check(word, ctx, settled))), (name, word)
                assert fresh._automaton is None

    def test_one_automaton_per_bound(self, phi, monkeypatch):
        # C (0:0) is phi's maximal digit and B (1:1) its mid digit
        words = [DigitString((B, C), (A,)), DigitString((A,), (C,)),
                 DigitString.finite((B, A)), DigitString((A,), (A,))]
        bounds = adm.AdmissibilityBound(phi, 10_000)
        with monkeypatch.context() as m:   # a one-word check builds no tables
            m.setattr(adm, "_tail_tables", lambda *a, **k: pytest.fail("tables built"))
            assert is_admissible_greedy(words[0], phi, bounds).verdict == REJECTED
            assert bounds._automaton is None and bounds.settled
        is_admissible_greedy(words[0], phi, bounds)
        tails = bounds._automaton
        assert tails and bounds._tails() is tails
        for w in words:
            is_admissible_greedy(w, phi, bounds)
            is_admissible_lazy(complement_pairs(w, phi.floor_beta), phi, bounds)
            assert bounds._automaton is tails
        assert [n for n in adm.AdmissibilityBound.__slots__ if "automat" in n] == ["_automaton"]

    def test_binary_reports_match_the_reference(self, phi):
        bounds = reference_bounds(phi)
        scheme = build_ito_sadahiro_scheme(phi)
        low = run_scheme(scheme, scheme.domain.lo).word
        for w in words_up_to((0, 1), 10):
            assert (report_tuple(golden_forbidden_factor_check(w))
                    == golden_reference(w, phi, bounds)), w
            assert report_tuple(ito_sadahiro_admissible(w)) == ito_sadahiro_reference(w, low), w
        # a pair 0:1 anywhere wins over an earlier rule failure
        w = parse_word("11000001")
        want = (REJECTED, "forbidden-factor", 7, "01")
        assert golden_reference(w, phi, bounds) == want
        assert report_tuple(golden_forbidden_factor_check(w)) == want
        # words shaped like the benchmark's: greedy pair words of 25-45 pairs and
        # periods of 2-6 pairs, half of them damaged late by 1:1.0:0 or 0:1 (both,
        # at times), a letter put in front of some so that they pair up oddly
        rng = random.Random(37)
        verdicts = set()
        for _ in range(2000):
            pre, per = (golden_pairs(rng, n) for n in (rng.randrange(25, 45), rng.randrange(2, 7)))
            for bad in [(B, C), (D,)] if rng.random() < 0.5 else []:
                if rng.random() < 0.6:
                    k = len(pre) - rng.randrange(3, 20)
                    pre[k:k + len(bad)] = bad
            lead = [rng.randrange(2)] * rng.randrange(2)
            w = DigitString(lead + [x for p in pre for x in p], [x for p in per for x in p])
            got = report_tuple(golden_forbidden_factor_check(w))
            assert got == golden_reference(w, phi, bounds), w
            verdicts.add(got[0] if got[3] is None else got[3][:2])
        assert verdicts == {ADMISSIBLE, "01", "11"}

    @pytest.mark.parametrize("name", sorted(LETTER_BASES))
    def test_letter_rows_match_the_pair_checks(self, name):
        # the letter rows of the greedy and of the lazy automaton against the
        # first pair outside the alphabet, else the pair check of the word paired up
        make, max_total = LETTER_BASES[name]
        ctx = make()
        fb, bounds, alpha = ctx.floor_beta, reference_bounds(ctx), minimal_alphabet(ctx)
        words = []   # each word, paired up, and its letters in pair alignment
        for w in words_up_to(tuple(range(fb + 1)), max_total):
            if w.period or len(w) % 2 == 0:
                pairs = psi_inverse(w)
                flat = (sum(part, ()) for part in (pairs.preperiod, pairs.period))
                words.append((w, pairs, DigitString._of_orbit(*flat)))
        for lazy, check, alphabet in ((False, is_admissible_greedy, set(alpha.greedy)),
                                      (True, is_admissible_lazy, set(alpha.lazy))):
            rows = adm._letter_rows(bounds._tails()[lazy], fb)
            for w, pairs, flat in words:
                letters = pairs.preperiod + pairs.period
                k = next((k for k, p in enumerate(letters) if p not in alphabet), None)
                if k is not None:
                    want = "forbidden-factor", 2 * k
                else:
                    v = check(pairs, ctx, bounds).violation
                    want = (None, None) if v is None else (v.rule, 2 * v.position - 2)
                assert adm._scan(rows, flat.preperiod, flat.period) == want, (name, lazy, w)

    def test_bounds_with_no_period_fall_back(self):
        # 7/2: the reference orbits are cut by the budget, so tails that run
        # into them are undecided; words carry critical digits followed by
        # pieces of a bound, so every outcome occurs
        ctx = rational_field(Fraction(7, 2))
        bounds = reference_bounds(ctx, orbit_budget=40)
        assert not bounds.top.ok and not bounds.mid.ok
        alpha = minimal_alphabet(ctx)
        fb = ctx.floor_beta
        mids = [p for p in alpha.greedy if p.b >= 1 and p.a == fb]
        reference = PairReference(ctx, bounds)
        rng = random.Random(71)
        verdicts = set()
        for _ in range(400):
            def piece():
                if rng.random() < 0.4:
                    return [rng.choice(alpha.greedy)]
                crit = rng.choice([alpha.max_greedy] + mids)
                bound = bounds.top.word if crit == alpha.max_greedy else bounds.mid.word
                return [crit] + list(bound.preperiod[:rng.randrange(0, 45)])
            pre = [d for _ in range(rng.randrange(0, 4)) for d in piece()]
            per = [d for _ in range(rng.randrange(0, 3)) for d in piece()]
            w = DigitString(tuple(pre), tuple(per))
            got = report_tuple(is_admissible_greedy(w, ctx, bounds))
            assert got == reference(w), w
            verdicts.add(got[0])
            mirror = complement_pairs(w, fb)
            got = report_tuple(is_admissible_lazy(mirror, ctx, bounds))
            assert got == reference(mirror, lazy=True), mirror
        assert verdicts == {ADMISSIBLE, REJECTED, PREFIX_OK, UNDECIDED}
        assert bounds._tails() is None

    def test_tables_over_budget_fall_back(self, phi, mu, monkeypatch):
        monkeypatch.setattr(adm, "_TAIL_TABLE_BUDGET", 10)
        for ctx, letters in ((phi, (A, B, C)), (mu, (A, B, C, D))):
            bounds = adm.AdmissibilityBound(ctx, 10_000)
            reference = PairReference(ctx, bounds)
            for w in words_up_to(letters, 4):
                assert report_tuple(is_admissible_greedy(w, ctx, bounds)) == reference(w), w
            assert bounds._tails() is None

    def test_state_counts_stay_small(self, phi):
        # 8 for phi, 12 for Tribonacci, 17 for Tetranacci; a blow-up shows here
        for make, _ in TAIL_BASES.values():
            ctx = make()
            greedy_rows, lazy_rows = reference_bounds(ctx)._tails()
            assert row_count(greedy_rows) == row_count(lazy_rows) <= 24
            # a full row and a half row per letter for each pair row, and the
            # rows after a pair outside the alphabet
            fb = ctx.floor_beta
            for rows in (greedy_rows, lazy_rows):
                assert row_count(adm._letter_rows(rows, fb)) <= (fb + 2) * (row_count(rows) + 1)
        assert row_count(adm._ito_sadahiro_tails(phi)) <= 12
        assert row_count(adm._letter_tails(phi)) == 27

    def test_automata_freed_with_the_context(self):
        ctx = field_from_poly((-1, -1, 1), 1, 2)
        assert reference_bounds(ctx).settled   # the checks below read the automaton
        assert is_admissible_greedy(DigitString.finite((B, C)), ctx).verdict == REJECTED
        assert is_admissible_lazy(DigitString((B,), (C,)), ctx).verdict == REJECTED
        assert reference_bounds(ctx)._automaton
        assert adm._letter_tails(ctx) and (adm._letter_tails.__wrapped__,) in ctx._tables
        ref = weakref.ref(ctx)
        del ctx
        gc.collect()
        assert ref() is None

    def test_letter_rows_built_once(self, phi, monkeypatch):
        monkeypatch.delitem(phi._tables, (adm._letter_tails.__wrapped__,), raising=False)
        built, real = [], adm._letter_rows
        monkeypatch.setattr(adm, "_letter_rows", lambda *a: built.append(a) or real(*a))
        rng = random.Random(3)
        bits = lambda n: tuple(rng.randrange(2) for _ in range(rng.randrange(n)))
        for _ in range(100):
            golden_forbidden_factor_check(DigitString(bits(12), bits(5)))
        assert len(built) == 1
        tails = reference_bounds(phi)._tails()
        assert built == [(tails[0], phi.floor_beta)]

    def test_first_digit_outside_the_alphabet_is_named(self, phi):
        bad = PairDigit(1, 2)
        word = DigitString((A, D, B, bad), (C,))
        for bounds in (reference_bounds(phi), adm.AdmissibilityBound(phi, 10_000)):
            with pytest.raises(ValueError, match=r"PairDigit\(b=0, a=1\) outside the minimal greedy"):
                is_admissible_greedy(word, phi, bounds)
            with pytest.raises(ValueError, match=r"PairDigit\(b=1, a=0\) outside the minimal lazy"):
                is_admissible_lazy(DigitString((B, A, bad), (C,)), phi, bounds)

    def test_a_letter_that_is_not_a_pair_is_named(self, phi):
        # the per-digit path on a fresh bound, the automaton on a settled one
        fresh, settled = adm.AdmissibilityBound(phi, 10_000), adm.AdmissibilityBound(phi, 10_000)
        assert settled.settled and settled._tails()
        word = DigitString((B, [1, 0]), (C,))
        for bounds in (fresh, settled):
            for check, side in ((is_admissible_greedy, "greedy"), (is_admissible_lazy, "lazy")):
                with pytest.raises(ValueError, match=r"^digit \[1, 0\] outside the minimal "
                                                     + side + " alphabet$"):
                    check(word, phi, bounds)
        assert not fresh._bounds

    def test_a_large_alphabet_builds_no_table_without_a_critical_digit(self, monkeypatch):
        def refuse(ctx):
            raise AssertionError("built a table of the pair alphabet")

        for module in (schemes, adm):
            monkeypatch.setattr(module, "_pair_tiling", refuse)
            monkeypatch.setattr(module, "all_pair_digits", refuse)
        ctx = rational_field(Fraction(3001, 3))
        greedy = parse_word("1:0(0:0)", pair=True)
        lazy = parse_word("999:1000(1000:1000)", pair=True)
        assert is_admissible_greedy(greedy, ctx).verdict == ADMISSIBLE
        assert is_admissible_lazy(lazy, ctx).verdict == ADMISSIBLE

    def test_bounds_of_another_base_are_refused(self, phi):
        # phi's letter ranks read against Tribonacci's bounds would accept this word
        word = parse_word("1:1.0:0(1:0)", pair=True)
        mirror = complement_pairs(word, phi.floor_beta)
        tribonacci = reference_bounds(tribonacci_field())
        twin = field_from_poly(phi.min_poly, 1, 2)   # equal to phi, not the same object
        assert twin is not phi
        for check, w in ((is_admissible_greedy, word), (is_admissible_lazy, mirror)):
            assert check(w, phi).verdict == REJECTED
            with pytest.raises(ContextMismatchError):
                check(w, phi, tribonacci)
            assert check(w, twin, reference_bounds(phi)).verdict == REJECTED

    def test_trigger_free_words_compute_no_bound(self, monkeypatch):
        ctx = rational_field(Fraction(7, 4))
        monkeypatch.setattr(adm, "run_scheme", lambda *a, **k: pytest.fail("bound computed"))
        bounds = adm.AdmissibilityBound(ctx, 10_000)
        # 1:0 and 0:0 are not critical digits for 7/4
        words = (DigitString((A,), (C,)), DigitString.finite((A, C, C)))
        for w in words:
            assert is_admissible_greedy(w, ctx, bounds).verdict in (ADMISSIBLE, PREFIX_OK)
            mirror = complement_pairs(w, ctx.floor_beta)
            assert is_admissible_lazy(mirror, ctx, bounds).verdict in (ADMISSIBLE, PREFIX_OK)

    @pytest.mark.parametrize("make,top,budget", [
        (phi_field, C, 10_000),
        # 7/4's orbits run to a small budget: an unneeded one would show
        (lambda: rational_field(Fraction(7, 4)), D, 50)])
    def test_each_rule_runs_only_its_own_orbit(self, monkeypatch, make, top, budget):
        ctx = make()
        scheme = restricted_scheme(ctx)
        starts = {"top": scheme.step(scheme.domain.hi)[1],
                  "mid": interval_I(ctx).lo + ctx.frac_beta()}
        ran = []
        real = adm.run_scheme

        def record(scheme, x, *args, **kwargs):
            ran.append(next(rule for rule, start in starts.items() if start == x))
            return real(scheme, x, *args, **kwargs)

        monkeypatch.setattr(adm, "run_scheme", record)
        assert minimal_alphabet(ctx).max_greedy == top
        # A (1:0) is no critical digit, top the maximal one and B (1:1) a mid one
        bounds = adm.AdmissibilityBound(ctx, budget)
        is_admissible_greedy(DigitString.finite((top, A, top)), ctx, bounds)
        is_admissible_lazy(complement_pairs(DigitString((A,), (top,)), ctx.floor_beta),
                           ctx, bounds)
        assert ran == ["top"]
        bounds = adm.AdmissibilityBound(ctx, budget)
        bounds.top
        assert ran == ["top", "top"]
        bounds.mid
        assert ran == ["top", "top", "mid"]
        bounds = adm.AdmissibilityBound(ctx, budget)
        is_admissible_greedy(DigitString((B, A), (A,)), ctx, bounds)
        assert ran == ["top", "top", "mid", "mid"]
        bounds.settled
        assert ran == ["top", "top", "mid", "mid", "top"]


class TestLazyViolationText:
    def test_text_is_formatted_only_when_read(self, phi, monkeypatch):
        calls = []
        real = adm._factor_text
        monkeypatch.setattr(adm, "_factor_text", lambda *a: calls.append(a) or real(*a))
        rejected = [is_admissible_greedy(DigitString.finite((A, B, C, A)), phi),
                    is_admissible_lazy(DigitString.finite((C, B, D)), phi),
                    golden_forbidden_factor_check(DigitString.finite((1, 0, 0, 1))),
                    ito_sadahiro_admissible(DigitString.finite((1, 0, 1, 1)))]
        assert all(r.verdict == REJECTED for r in rejected) and calls == []
        v = rejected[0].violation
        assert (v.rule, v.position) == ("mid-digit", 2) and calls == []
        assert v.factor == "1:1.0:0.1:0" and len(calls) == 1
        assert v.factor == "1:1.0:0.1:0" and len(calls) == 1

    def test_equality_is_rule_position_and_factor(self, phi):
        v = is_admissible_greedy(DigitString.finite((A, B, C, A)), phi).violation
        assert v == Violation("mid-digit", 2, "1:1.0:0.1:0")
        assert hash(v) == hash(Violation("mid-digit", 2, "1:1.0:0.1:0"))
        assert v != Violation("mid-digit", 2, "1:1.0:0")
        assert v != Violation("top-digit", 2, "1:1.0:0.1:0")
        assert repr(v) == "Violation(rule='mid-digit', position=2, factor='1:1.0:0.1:0')"

    def test_copy_and_pickle_keep_a_lazy_violation(self, phi):
        eager = Violation("mid-digit", 2, "1:1.0:0.1:0")
        for duplicate in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
            v = is_admissible_greedy(DigitString.finite((A, B, C, A)), phi).violation
            assert v._span is not None   # the text is not formatted yet
            twin = duplicate(v)
            assert type(twin) is Violation and twin == eager == v
            assert repr(twin) == repr(eager) == repr(v)


ENTROPY_BASES = {
    "phi": (phi_field, (-1, -1, 1), 1, 2),
    "tribonacci": (tribonacci_field, (-1, -1, -1, 1), 1, 2),
    "cubic": (lambda: field_from_poly((-1, 0, -3, 1), 3, 4), (-1, 0, -3, 1), 3, 4),
}


class TestEntropy:
    @pytest.mark.parametrize("name", sorted(ENTROPY_BASES))
    def test_growth_rate_is_beta_squared(self, name):
        # the (-beta)-shift has entropy log(beta^2) per pair letter
        make, poly, lo, hi = ENTROPY_BASES[name]
        counts = not_rejected_counts(make(), 40)
        beta = real_root(poly, lo, hi)
        assert abs(counts[40] / counts[39] - beta * beta) < 1e-4

    @pytest.mark.parametrize("name,n_max", [("phi", 8), ("tribonacci", 8), ("cubic", 4)])
    def test_counts_match_brute_force(self, name, n_max):
        ctx = ENTROPY_BASES[name][0]()
        letters = minimal_alphabet(ctx).greedy
        brute = [sum(is_admissible_greedy(DigitString.finite(w), ctx).verdict != REJECTED
                     for w in all_words(letters, n)) for n in range(n_max + 1)]
        assert not_rejected_counts(ctx, n_max) == brute
