import random
import sys
import threading
import time
from fractions import Fraction
from math import gcd

import pytest

from helpers import (WALK_BASES, random_point, scan_merged, scan_steps,
                     tie_offset)
from negabase import (BranchBudgetError, DigitString, DomainError, ExactReal, FieldError,
                      PairDigit, alt_sort_key, build_ito_sadahiro_scheme,
                      count_representation_branches,
                      digit_subinterval, enumerate_prefixes, eval_beta2_pairs,
                      eval_neg_beta, extremal_prefix, feasible_digits,
                      field_from_poly, greedy_neg_beta, interval_I,
                      lazy_neg_beta, rational_field, run_scheme, sample_unique_numbers,
                      step_max_digit, step_min_digit)
from negabase.field import FieldContext
from negabase.schemes import _children, _lowest

B, C = PairDigit(1, 1), PairDigit(0, 0)


class TestEnumerate:
    def test_unique_point(self, phi):
        assert enumerate_prefixes(phi.element(-1), 4) == [(1, 0, 1, 0)]

    def test_minus_half_contains_both_extremes(self, phi):
        prefixes = enumerate_prefixes(phi.element(Fraction(-1, 2)), 6)
        assert (1, 1, 1, 0, 0, 0) in prefixes
        assert (1, 0, 0, 1, 1, 1) in prefixes

    def test_sorted_by_alternate_order(self, phi):
        from negabase import alt_compare

        prefixes = enumerate_prefixes(phi.element(Fraction(-1, 3)), 8)
        for u, v in zip(prefixes, prefixes[1:]):
            assert alt_compare(DigitString.finite(u), DigitString.finite(v)) == -1

    def test_bc_value_unique_for_mu(self, mu):
        x = eval_beta2_pairs(mu, DigitString((), (B, C)))
        assert count_representation_branches(x, 12) == 1

    def test_minus_half_branches(self, phi):
        assert count_representation_branches(phi.element(Fraction(-1, 2)), 12) >= 2

    def test_feasibility_certificate(self, phi):
        # each prefix must reproduce x exactly up to a representable remainder
        rng = random.Random(61)
        I = interval_I(phi)
        mb = -phi.beta()
        for _ in range(10):
            x = random_point(rng, I)
            for p in enumerate_prefixes(x, 6):
                word = DigitString.finite(p)
                rem = (x - eval_neg_beta(phi, word)) * mb ** len(p)
                assert I.contains(rem)

    def test_monotone_under_truncation(self, phi):
        rng = random.Random(67)
        I = interval_I(phi)
        for _ in range(8):
            x = random_point(rng, I)
            deep = enumerate_prefixes(x, 9)
            shallow = enumerate_prefixes(x, 8)
            assert sorted(set(p[:8] for p in deep)) == sorted(shallow)
            for p in deep:
                assert p[:8] in shallow

    def test_outside_interval(self, phi):
        with pytest.raises(DomainError):
            enumerate_prefixes(phi.element(10), 3)
        # outside I is a domain error before a depth below 1 is a ValueError
        for walk in (enumerate_prefixes, count_representation_branches, extremal_prefix):
            with pytest.raises(DomainError):
                walk(phi.element(10), 0)
            with pytest.raises(ValueError, match="depth must be at least 1"):
                walk(phi.zero(), 0)

    def test_budget(self, phi):
        with pytest.raises(BranchBudgetError):
            enumerate_prefixes(phi.element(Fraction(-1, 2)), 40, node_budget=50)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_a_budget_below_one_is_refused(self, phi, budget):
        # by name, before x is tested against I: 10 is outside it
        for walk in (enumerate_prefixes, count_representation_branches):
            for x in (phi.element(Fraction(-1, 2)), phi.element(10)):
                with pytest.raises(ValueError) as err:
                    walk(x, 3, node_budget=budget)
                assert type(err.value) is ValueError, (walk, x)
                assert str(err.value) == "node_budget must be at least 1"
        assert count_representation_branches(interval_I(phi).lo, 1, node_budget=1) == 1


class TestExtremal:
    def test_matches_paper_values(self, phi):
        x = phi.element(Fraction(-1, 2))
        assert extremal_prefix(x, 12, "max") == (1, 1, 1, 0, 0, 0) * 2
        assert extremal_prefix(x, 12, "min") == (1, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1)

    def test_max_dominates_min(self, phi):
        from negabase import alt_compare

        rng = random.Random(71)
        I = interval_I(phi)
        for _ in range(10):
            x = random_point(rng, I)
            hi = extremal_prefix(x, 9, "max")
            lo = extremal_prefix(x, 9, "min")
            assert alt_compare(DigitString.finite(lo), DigitString.finite(hi)) <= 0

    def test_agreement_with_algorithms(self, phi, mu, seven_quarters):
        rng = random.Random(73)
        for ctx in (phi, mu, seven_quarters):
            I = interval_I(ctx)
            for _ in range(12):
                x = random_point(rng, I, interior=False)
                assert extremal_prefix(x, 10, "max") == \
                    greedy_neg_beta(x, depth=10).word.preperiod
                assert extremal_prefix(x, 10, "min") == \
                    lazy_neg_beta(x, depth=10).word.preperiod

    def test_bad_which(self, phi):
        with pytest.raises(ValueError):
            extremal_prefix(phi.zero(), 3, "median")
        # refused before the walk starts, deep or not
        with pytest.raises(ValueError):
            extremal_prefix(phi.element(Fraction(-1, 2)), 60, "median")


# -- the walk on the lattice against the alphabet scan ---------------------------

def _scan_walk(x, depth):
    """The extendable prefixes of x, by a test-side breadth-first loop over
    scan_steps, and the number of nodes."""
    level, nodes = [((), x)], 0
    for _ in range(depth):
        level = [(p + (a,), w) for p, y in level for a, w in scan_steps(y)]
        nodes += len(level)
    return [p for p, _ in level], nodes


def _walk_points(ctx):
    """Every end of a digit subinterval (l and r among them), where the
    children meet l or r exactly, and every p/q with q <= 7 in I."""
    I = interval_I(ctx)
    subs = [digit_subinterval(ctx, a) for a in range(ctx.floor_beta + 1)]
    ends = [e for iv in subs for e in (iv.lo, iv.hi)]
    rationals = [ctx.element(Fraction(p, q)) for q in range(1, 8)
                 for p in range(-2 * q, q + 1) if gcd(p, q) == 1]
    return ends + [x for x in rationals if I.contains(x)]


@pytest.mark.parametrize("name", sorted(WALK_BASES))
def test_lattice_walk_matches_the_alphabet_scan(name):
    ctx = field_from_poly(*WALK_BASES[name])
    for i, x in enumerate(_walk_points(ctx)):
        depth = 8 + i % 3
        want = sorted(_scan_walk(x, depth)[0], key=alt_sort_key)
        assert enumerate_prefixes(x, depth) == want, (x, depth)


# monic and not, degrees 1 to 4, and an alphabet of 334 digits
COMPILED_WALK_BASES = {name: WALK_BASES[name] for name in (
    "phi", "tribonacci", "rt3", "tetranacci", "seven-quarters", "fourteen-fifths", "non-monic")}
COMPILED_WALK_BASES["1001/3"] = ((-1001, 3), 333, 334)


@pytest.mark.parametrize("name", sorted(COMPILED_WALK_BASES))
def test_compiled_walk_matches_the_exact_scan(name):
    # the compiled walk visits only the digits that two floor divisions keep:
    # at l, r, every cut and every p/q with q <= 7, the digits and reduced
    # remainders of one level's edges are the exact scan of the whole
    # alphabet, the children w/E over E = den(x)*M, M the modulus's denominator
    ctx = field_from_poly(*COMPILED_WALK_BASES[name])
    walk, _ = _children(ctx)
    M = (ctx.beta() ** ctx.degree).den
    for x in _walk_points(ctx):
        scan = scan_steps(x)
        assert feasible_digits(x) == [a for a, _ in scan], x
        levels = []
        walk(x.num, x.den, 1, len(scan), levels)
        assert [(a, _lowest(ctx, w, x.den * M)) for _, a, w in levels[0]] == scan, x


def test_one_compiled_walk_per_degree():
    # phi and 1 + sqrt(3), both of degree 2, walk and descend on one code
    # object each: every constant of a base is a name bound per context.
    # 7/4, of degree 1, walks and descends on others
    def code(ctx):
        return [f.__code__ for f in _children(ctx)]

    a, b = code(field_from_poly(*WALK_BASES["phi"]))
    c, d = code(field_from_poly(*WALK_BASES["rt3"]))
    assert c is a and d is b and a is not b
    c, d = code(field_from_poly(*WALK_BASES["seven-quarters"]))
    assert c is not a and d is not b


def _straddle_points(ctx):
    """(a, x) for x tie_offset off an end of digit a's subinterval, in I: a
    child of x lies that close to l or r, and no 64-bit bound decides it."""
    I, eps = interval_I(ctx), tie_offset(ctx)
    for a in range(ctx.floor_beta + 1):
        iv = digit_subinterval(ctx, a)
        for x in filter(I.contains, (iv.lo - eps, iv.lo + eps, iv.hi - eps, iv.hi + eps)):
            yield a, x


@pytest.mark.parametrize("name", sorted(WALK_BASES))
def test_lattice_walk_falls_back_next_to_l_and_r(name):
    # tie_offset off the end of a digit subinterval, a child lies that close
    # to l or r: no 64-bit bound decides it, and the walk counts its exact
    # fallback.  The one-step choices read one level of the walk: they
    # fall back there too
    ctx = field_from_poly(*WALK_BASES[name])
    for a, x in _straddle_points(ctx):
        before = ctx.kernel_fallback_count()
        want = sorted(_scan_walk(x, 10)[0], key=alt_sort_key)
        assert enumerate_prefixes(x, 10) == want, (a, x)
        assert ctx.kernel_fallback_count() > before, (a, x)
        scan = [(d, w.num, w.den) for d, w in scan_steps(x)]
        before = ctx.kernel_fallback_count()
        assert feasible_digits(x) == [d for d, _, _ in scan], (a, x)
        after = ctx.kernel_fallback_count()
        assert after > before, (a, x)
        for step, want in ((step_min_digit, scan[0]), (step_max_digit, scan[-1])):
            d, w = step(x)
            assert (d, w.num, w.den) == want, (step.__name__, a, x)
            assert ctx.kernel_fallback_count() > after, (step.__name__, a, x)
            after = ctx.kernel_fallback_count()
        # the one-step choices are the first place of the alternating descent
        assert (step_min_digit(x)[0], step_max_digit(x)[0]) == \
            (extremal_prefix(x, 1, "max")[0], extremal_prefix(x, 1, "min")[0]), (a, x)
    # just outside I a child lies that close to l or r: the exact fallback
    # decides the domain error, which no other test of x precedes
    I, eps = interval_I(ctx), tie_offset(ctx)
    for x in (I.lo - eps, I.hi + eps):
        for call in (lambda: enumerate_prefixes(x, 10),
                     lambda: count_representation_branches(x, 10),
                     lambda: extremal_prefix(x, 10, "max"),
                     lambda: step_min_digit(x), lambda: step_max_digit(x)):
            before = ctx.kernel_fallback_count()
            with pytest.raises(DomainError) as err:
                call()
            assert str(err.value) == f"x = {x.as_text()} outside {I}"
            assert ctx.kernel_fallback_count() > before, x


@pytest.mark.parametrize("name", sorted(WALK_BASES))
def test_lattice_walk_budget(name):
    # the budget counts the nodes of the scan, and the error text is the same
    ctx = field_from_poly(*WALK_BASES[name])
    x = max(_walk_points(ctx), key=lambda y: _scan_walk(y, 10)[1])
    prefixes, nodes = _scan_walk(x, 10)
    assert enumerate_prefixes(x, 10, nodes) == sorted(prefixes, key=alt_sort_key)
    for budget in (nodes - 1, nodes // 2):
        with pytest.raises(BranchBudgetError) as err:
            enumerate_prefixes(x, 10, budget)
        assert str(err.value) == f"more than {budget} branch nodes at depth 10"


# -- counts and extremal prefixes over the distinct remainders ------------------

def _check_merged(x, depth):
    prefixes = enumerate_prefixes(x, depth)
    count, hi, lo = scan_merged(x, depth)
    assert count_representation_branches(x, depth) == len(prefixes) == count, (x, depth)
    assert extremal_prefix(x, depth, "max") == max(prefixes, key=alt_sort_key) == hi, (x, depth)
    assert extremal_prefix(x, depth, "min") == min(prefixes, key=alt_sort_key) == lo, (x, depth)


@pytest.mark.parametrize("name", sorted(WALK_BASES))
def test_merged_walk_matches_every_prefix(name):
    ctx = field_from_poly(*WALK_BASES[name])
    for i, x in enumerate(_walk_points(ctx)):
        _check_merged(x, 8 + i % 3)


@pytest.mark.parametrize("name", sorted(WALK_BASES))
def test_merged_walk_falls_back_next_to_l_and_r(name):
    ctx = field_from_poly(*WALK_BASES[name])
    for a, x in _straddle_points(ctx):
        _check_merged(x, 10)
        for call in (lambda: count_representation_branches(x, 10),
                     lambda: extremal_prefix(x, 10, "max"),
                     lambda: extremal_prefix(x, 10, "min")):
            before = ctx.kernel_fallback_count()
            call()
            assert ctx.kernel_fallback_count() > before, (a, x)


@pytest.mark.parametrize("name", sorted(WALK_BASES))
def test_walk_decides_l_and_r_on_the_vectors(name):
    # from l the only child is -beta*l - floor(beta) = r, and from r it is
    # -beta*r = l: every level straddles an end of I at an exact tie, which
    # the vectors decide without the exact path.  The reducible base's
    # vectors are not canonical, so there only the outputs are checked
    ctx = field_from_poly(*WALK_BASES[name])
    I = interval_I(ctx)
    for x in (I.lo, I.hi):
        prefixes = sorted(_scan_walk(x, 10)[0], key=alt_sort_key)
        count, hi, lo = scan_merged(x, 10)
        for call, want in ((lambda: enumerate_prefixes(x, 10), prefixes),
                           (lambda: count_representation_branches(x, 10), count),
                           (lambda: extremal_prefix(x, 10, "max"), hi),
                           (lambda: extremal_prefix(x, 10, "min"), lo)):
            fallbacks, ties = ctx.kernel_fallback_count(), ctx.kernel_tie_count()
            assert call() == want, x
            if name != "reducible":
                assert ctx.kernel_fallback_count() == fallbacks, x
                assert ctx.kernel_tie_count() > ties, x


def _merged_nodes(x, depth):
    """The (remainder, digit) nodes of a count: scan_steps' children of each
    level's distinct exact remainders, level by level."""
    level, nodes = [x], 0
    for _ in range(depth):
        kids = [w for y in level for _, w in scan_steps(y)]
        nodes += len(kids)
        level = list({(w.num, w.den): w for w in kids}.values())
    return nodes


@pytest.mark.parametrize("name", ["phi", "fourteen-fifths"])
def test_walk_budget_at_the_exact_node_total(name):
    # a budget of exactly the nodes made passes; one less is refused, in the
    # same words, for the count (a node is 1) and the listing (a node is the
    # prefixes it carries, so the total is every prefix of every length)
    ctx = field_from_poly(*WALK_BASES[name])
    x = ctx.element(Fraction(-1, 2))
    prefixes, listed = _scan_walk(x, 12)
    for call, nodes, want in ((count_representation_branches, _merged_nodes(x, 12), len(prefixes)),
                              (enumerate_prefixes, listed, sorted(prefixes, key=alt_sort_key))):
        assert call(x, 12, nodes) == want, call.__name__
        with pytest.raises(BranchBudgetError) as err:
            call(x, 12, nodes - 1)
        assert str(err.value) == f"more than {nodes - 1} branch nodes at depth 12"


@pytest.mark.parametrize("name", ["phi", "tribonacci", "rt3"])
def test_walk_ties_each_level_once_from_l_and_r(name):
    # from l and r each level has one child, an exact tie with the other end:
    # a depth-16 count or descent counts 16 ties and no exact fallback
    ctx = field_from_poly(*WALK_BASES[name])
    I = interval_I(ctx)
    for x in (I.lo, I.hi):
        for call in (lambda: count_representation_branches(x, 16),
                     lambda: extremal_prefix(x, 16, "max"),
                     lambda: extremal_prefix(x, 16, "min")):
            ties, fallbacks = ctx.kernel_tie_count(), ctx.kernel_fallback_count()
            call()
            assert ctx.kernel_tie_count() - ties == 16, x
            assert ctx.kernel_fallback_count() == fallbacks, x


@pytest.mark.parametrize("name", ["phi", "tribonacci"])
def test_one_tie_count_per_walk(name, monkeypatch):
    # the compiled walk and descent count their ties in a local: a depth-16
    # count or extremal prefix from l adds its 16 ties to the context in one
    # call, and feasible_digits(l) its one tie, with the same totals
    ctx = field_from_poly(*WALK_BASES[name])
    l = interval_I(ctx).lo
    calls = []
    count = FieldContext._count

    def spy(self, counter, n=1):
        if counter == "kernel_ties":
            calls.append((counter, n))
        return count(self, counter, n)

    monkeypatch.setattr(FieldContext, "_count", spy)
    for call, ties in ((lambda: count_representation_branches(l, 16), 16),
                       (lambda: extremal_prefix(l, 16, "max"), 16),
                       (lambda: extremal_prefix(l, 16, "min"), 16),
                       (lambda: feasible_digits(l), 1)):
        calls.clear()
        before = ctx.kernel_tie_count()
        call()
        assert calls == [("kernel_ties", ties)]
        assert ctx.kernel_tie_count() - before == ties


@pytest.mark.parametrize("name", ["phi", "tribonacci"])
def test_one_guard_for_every_walk(name):
    # outside I each walk is refused before its depth is, with one text;
    # feasible_digits finds no digit there, and the budget keeps its text
    ctx = field_from_poly(*WALK_BASES[name])
    I, x = interval_I(ctx), ctx.element(10)
    outside = f"x = 10 outside {I}"
    walks = (enumerate_prefixes, count_representation_branches, extremal_prefix)
    for depth in (0, 3):
        for walk in walks:
            with pytest.raises(DomainError) as err:
                walk(x, depth)
            assert str(err.value) == outside
    for step in (step_min_digit, step_max_digit):
        with pytest.raises(DomainError) as err:
            step(x)
        assert str(err.value) == outside
    for walk in walks:
        with pytest.raises(ValueError) as err:
            walk(ctx.zero(), 0)
        assert type(err.value) is ValueError and str(err.value) == "depth must be at least 1"
    assert feasible_digits(x) == []
    for walk in walks[:2]:
        with pytest.raises(BranchBudgetError) as err:
            walk(ctx.element(Fraction(-1, 2)), 40, node_budget=5)
        assert str(err.value) == "more than 5 branch nodes at depth 40"


def test_walk_levels_under_threads():
    # the walk and the descent share no state between calls: four threads
    # counting and descending over two alternating denominators on one
    # context give the single-thread results and build no table
    ctx = field_from_poly((-1, -1, 1), 1, 2)
    xs = [ctx.element(Fraction(-1, 2)), ctx.element(Fraction(-1, 3))]

    def run(order):
        return [(x, count_representation_branches(x, 300), extremal_prefix(x, 300, "max"),
                 extremal_prefix(x, 300, "min")) for _ in range(4) for x in order]

    want = [run(xs), run(xs[::-1])]
    tables = len(ctx._tables)
    results, errors = {}, []

    def work(t):
        try:
            results[t] = run(xs[::-1] if t % 2 else xs)
        except Exception as exc:   # reported by the main thread below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert results == {t: want[t % 2] for t in range(4)}
    assert len(ctx._tables) == tables


def test_orbit_steppers_under_threads():
    # a scheme keeps the orbit loop of its last denominator, one entry replaced
    # whole: four threads expanding over two alternating denominators on one
    # Ito-Sadahiro and one beta^2 greedy scheme flip both entries all the time,
    # and every word is the single-thread one
    ctx = field_from_poly((-1, -1, 1), 1, 2)
    xs = [ctx.element(Fraction(-5, 23)), ctx.element(Fraction(-7, 31))]
    scheme = build_ito_sadahiro_scheme(ctx)

    def run(order):
        return [(run_scheme(scheme, x).word, greedy_neg_beta(x).word, lazy_neg_beta(x).word)
                for _ in range(50) for x in order]

    want = [run(xs), run(xs[::-1])]
    results, errors = {}, []

    def work(t):
        try:
            results[t] = run(xs[::-1] if t % 2 else xs)
        except Exception as exc:   # reported by the main thread below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert results == {t: want[t % 2] for t in range(4)}
    assert scheme._entry[0] in (23, 31)


def test_count_past_the_prefix_budget(phi):
    # 2^20 prefixes of length 60, over 2 remainders per level: the budget
    # counts merged nodes for counts and extremal prefixes, prefix nodes
    # for the listing
    x = phi.element(Fraction(-1, 2))
    count, _, lo = scan_merged(x, 60)
    assert count_representation_branches(x, 60) == count == 2 ** 20
    assert extremal_prefix(x, 60, "min") == lo
    with pytest.raises(BranchBudgetError):
        enumerate_prefixes(x, 60, 1000)


def test_deep_count_and_extremal(phi):
    # the reference count doubles every 3 digits; depth 1000 in under 50 ms
    x = phi.element(Fraction(-1, 2))
    ref = [scan_merged(x, d)[0] for d in range(1, 31)]
    assert all(ref[d + 3] == 2 * ref[d] for d in range(len(ref) - 3))
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        count = count_representation_branches(x, 1000)
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 0.05, seconds
    assert count == ref[10 - 1] << 330 == 2 ** 333   # depth 10, then 330 doublings
    assert extremal_prefix(x, 1000, "max")[:12] == (1, 1, 1, 0, 0, 0) * 2
    # extremal prefixes are the one-step choice iterated, linear in the depth:
    # x = -1 has the one representation (10)^w, depth 40000 in under 2 s
    start = time.perf_counter()
    assert extremal_prefix(phi.element(-1), 40000) == (1, 0) * 20000
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("r", (Fraction(14, 5), Fraction(7, 2)))
def test_merged_budget_where_nothing_merges(r):
    # no two prefixes reach one remainder, so the merged walk has as many
    # nodes as the scan's tree: the budget fires as it does there, same text
    ctx = rational_field(r)
    x = max(_walk_points(ctx), key=lambda y: _scan_walk(y, 10)[1])
    prefixes, nodes = _scan_walk(x, 10)
    assert count_representation_branches(x, 10, nodes) == len(prefixes) > 1
    for budget in (nodes - 1, nodes // 2):
        with pytest.raises(BranchBudgetError) as err:
            count_representation_branches(x, 10, budget)
        assert str(err.value) == f"more than {budget} branch nodes at depth 10"
    # the descent has no budget: it follows one path
    assert extremal_prefix(x, 10, "min") == min(prefixes, key=alt_sort_key)
    assert extremal_prefix(x, 10, "max") == max(prefixes, key=alt_sort_key)


class TestUniqueSampling:
    def test_pair_regime(self):
        ctx = rational_field(Fraction(14, 5))
        records = sample_unique_numbers(ctx, word_length=6, samples=6, depth=10)
        assert len(records) == 6
        for r in records:
            assert r.branch_count == 1 and r.unique_at_depth
            assert set(r.word.period) <= {0, 1, 2}

    def test_wide_alphabet_regime(self):
        ctx = rational_field(Fraction(7, 2))
        records = sample_unique_numbers(ctx, word_length=5, samples=6, depth=10)
        for r in records:
            assert r.branch_count == 1
            digits = set(r.word.preperiod) | set(r.word.period)
            assert digits <= {1, 2}

    def test_values_land_in_overlap(self):
        # unique values must lie where both attractors meet: (r-1, l+1)
        ctx = rational_field(Fraction(14, 5))
        I = interval_I(ctx)
        for r in sample_unique_numbers(ctx, word_length=4, samples=4, depth=8):
            assert (r.value - (I.hi - 1)).sign() > 0
            assert ((I.lo + 1) - r.value).sign() > 0

    def test_below_threshold_rejected(self):
        with pytest.raises(FieldError):
            sample_unique_numbers(rational_field(Fraction(3, 2)))

    def test_at_threshold_rejected(self):
        from negabase import field_from_poly

        ctx = field_from_poly((-2, -2, 1), Fraction(27, 10), Fraction(28, 10))
        with pytest.raises(FieldError):
            sample_unique_numbers(ctx)

    def test_deterministic(self):
        ctx = rational_field(Fraction(14, 5))
        a = sample_unique_numbers(ctx, word_length=4, samples=3, depth=8)
        b = sample_unique_numbers(ctx, word_length=4, samples=3, depth=8)
        assert [r.word for r in a] == [r.word for r in b]

    def test_threshold_tested_once_per_context(self, monkeypatch):
        # beta > 1 + sqrt(3) is a per-base table: two samplers on one context
        # compare beta^2 with 2*beta + 2 once, and a base below it is refused
        # with one text every time
        ctx = rational_field(Fraction(14, 5))
        bound = 2 * ctx.beta() + 2
        calls = []
        compare = ExactReal.compare

        def spy(self, other):
            if isinstance(other, ExactReal) and (other.num, other.den) == (bound.num, bound.den):
                calls.append(self)
            return compare(self, other)

        monkeypatch.setattr(ExactReal, "compare", spy)
        a = sample_unique_numbers(ctx, word_length=4, samples=2, depth=8)
        assert sample_unique_numbers(ctx, word_length=4, samples=2, depth=8) == a
        assert len(calls) == 1
        low = rational_field(Fraction(5, 2))
        for _ in range(2):
            with pytest.raises(FieldError, match=r"^unique-representation sampling needs "
                                                 r"beta > 1 \+ sqrt\(3\)$"):
                sample_unique_numbers(low)

    def test_one_walk_step_per_rational_base(self):
        # where the modulus has a denominator M > 1 every level has a new
        # scale: the walk, built once per context, computes each level's own,
        # so a depth-40 count builds no closure or table
        for text in ("fourteen-fifths", "non-monic"):
            ctx = field_from_poly(*WALK_BASES[text])
            x = interval_I(ctx).lo
            assert count_representation_branches(x, 2) == 1
            children, tables = _children(ctx), len(ctx._tables)
            assert count_representation_branches(x, 40) == 1
            assert _children(ctx) is children and len(ctx._tables) == tables
