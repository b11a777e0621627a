"""Admissibility of digit strings as greedy or lazy expansions.

The squared-base greedy map keeps the subinterval from l to l+1 invariant
and every orbit eventually falls into it, so admissibility is decided
there: a digit string is a greedy expansion exactly when every tail that
follows one of the two critical digit shapes stays lexicographically
below a reference expansion produced by the left-continuous version of
the map.  The two reference strings are eventually periodic for the
preset bases; when they are not (rational bases), comparisons that run
past the computed prefix come back as undecided rather than guessing.

Also here: the minimal pair alphabet actually used on the invariant
subinterval, lazy admissibility via digitwise complement, and the
forbidden-factor style checks for binary golden-ratio strings.
"""

from dataclasses import dataclass
from math import lcm
from typing import Optional

from .field import context_cached
from .schemes import (DEFAULT_ORBIT_BUDGET, Expansion, Interval, Scheme,
                      SchemeCell, _beta2_tables, all_pair_digits, interval_I,
                      run_scheme)
from .words import PairDigit, complement_pairs

ADMISSIBLE = "admissible"
REJECTED = "rejected"
PREFIX_OK = "prefix-ok"
UNDECIDED = "undecided"

RULE_TOP = "top-digit"
RULE_MID = "mid-digit"
RULE_FACTOR = "forbidden-factor"


@dataclass(frozen=True)
class Violation:
    rule: str
    position: int           # 1-based digit position where the rule fires
    factor: str


@dataclass(frozen=True)
class AdmissibilityReport:
    verdict: str
    violation: Optional[Violation] = None

    @property
    def ok(self):
        return self.verdict in (ADMISSIBLE, PREFIX_OK)


@dataclass(frozen=True)
class AlphabetInfo:
    """Minimal greedy alphabet, its lazy mirror, and the fullness predicate."""

    greedy: tuple
    lazy: tuple
    max_greedy: PairDigit
    min_lazy: PairDigit
    full: bool


@context_cached
def minimal_alphabet(ctx):
    """Pair digits that occur infinitely often in greedy expansions on the
    invariant subinterval: all pairs with b >= 1 plus the pure-integer
    digits below beta times the fractional part of beta."""
    fb = ctx.floor_beta
    threshold = ctx.beta() * ctx.frac_beta()
    greedy = []
    for p in all_pair_digits(ctx):
        if p.b >= 1 or (threshold - p.a).sign() > 0:
            greedy.append(p)
    greedy = tuple(greedy)
    lazy = tuple(PairDigit(fb - p.b, fb - p.a) for p in reversed(greedy))
    full = (ctx.beta() * ctx.beta() - ctx.beta() * fb - fb).sign() > 0
    return AlphabetInfo(greedy, lazy, greedy[-1], lazy[0], full)


@context_cached
def restricted_scheme(ctx):
    """The left-continuous squared-base greedy map on the invariant
    subinterval (l, l+1]: cells (gamma_i, gamma_{i+1}] over the minimal
    greedy alphabet."""
    alpha = minimal_alphabet(ctx)
    pairs_all, values_all, gammas, _ = _beta2_tables(ctx)
    n = len(alpha.greedy)
    if pairs_all[:n] != alpha.greedy:
        raise AssertionError("minimal alphabet is not an initial segment")
    l = interval_I(ctx).lo
    highs = gammas[1:n] + (l + 1,)
    cells = tuple(SchemeCell(Interval(gammas[i], highs[i], False, True),
                             alpha.greedy[i], values_all[i]) for i in range(n))
    return Scheme(ctx.beta() * ctx.beta(), Interval(l, l + 1, False, True),
                  cells).validate()


@dataclass(frozen=True)
class AdmissibilityBound:
    """The two reference expansions the admissibility test compares against."""

    top: Expansion   # follows the maximal alphabet digit
    mid: Expansion   # follows digits of the shape -b*beta + floor(beta), b >= 1

    @property
    def settled(self):
        return self.top.ok and self.mid.ok


def reference_bounds(ctx, orbit_budget=DEFAULT_ORBIT_BUDGET):
    """Compute (and memoize) the two reference expansions for the base."""
    return _reference_bounds(ctx, orbit_budget)


@context_cached
def _reference_bounds(ctx, orbit_budget):
    scheme = restricted_scheme(ctx)
    _, after_top = scheme.step(scheme.domain.hi)
    top = run_scheme(scheme, after_top, orbit_budget=orbit_budget)
    mid = run_scheme(scheme, interval_I(ctx).lo + ctx.frac_beta(),
                     orbit_budget=orbit_budget)
    return AdmissibilityBound(top, mid)


@context_cached
def _checker_tables(ctx, bounds):
    alpha = minimal_alphabet(ctx)
    rank = {p: i for i, p in enumerate(alpha.greedy)}
    fb = ctx.floor_beta
    mid_triggers = frozenset(p for p in alpha.greedy if p.b >= 1 and p.a == fb)

    def encode(exp):
        word = exp.word
        return (tuple(rank[p] for p in word.preperiod),
                tuple(rank[p] for p in word.period),
                exp.ok)

    return rank, alpha.max_greedy, mid_triggers, encode(bounds.top), encode(bounds.mid)


def _tail_below_bound(ranks, npre, nper, k, bound):
    """Is the tail of the rank-encoded word after 1-based position k
    strictly below the bound? Returns 'lt', 'viol', or 'undecided'."""
    b_pre, b_per, settled = bound
    nb = len(b_pre)

    def tail_digit(i):
        j = k + i
        return ranks[j] if j < npre else ranks[npre + (j - npre) % nper]

    def bound_digit(i):
        return b_pre[i] if i < nb else b_per[(i - nb) % len(b_per)]

    if not nper:
        # finite tail: can only witness a violation, never rule one out
        m = npre - k
        limit = m if settled else min(m, nb)
        for i in range(limit):
            t, bd = ranks[k + i], bound_digit(i)
            if t != bd:
                return "lt" if t < bd else "viol"
        return "lt"
    if settled:
        horizon = max(npre - k, 0) + nb + lcm(nper, len(b_per))
        for i in range(horizon):
            t, bd = tail_digit(i), bound_digit(i)
            if t != bd:
                return "lt" if t < bd else "viol"
        return "viol"  # tail equals the bound; equality is not admissible
    for i in range(nb):
        t, bd = tail_digit(i), bound_digit(i)
        if t != bd:
            return "lt" if t < bd else "viol"
    return "undecided"


def _pair_factor_text(word, k, length=4):
    pre, per = word.preperiod, word.period
    stop = k - 1 + length if per else min(k - 1 + length, len(pre))
    return ".".join(word.digit_at(i).text() for i in range(k - 1, stop))


def is_admissible_greedy(word, ctx, bounds=None):
    """Admissibility of a pair-digit string over the minimal greedy
    alphabet: every tail after a critical digit must stay below its bound.

    Infinite (eventually periodic) strings get a definite verdict whenever
    both reference bounds were period-detected; finite strings can only be
    screened for violations within the word.
    """
    if bounds is None:
        bounds = reference_bounds(ctx)
    rank, max_digit, mid_triggers, top_enc, mid_enc = _checker_tables(ctx, bounds)

    pre, per = word.preperiod, word.period
    npre, nper = len(pre), len(per)
    try:
        ranks = [rank[p] for p in pre + per]
    except KeyError as bad:
        raise ValueError(
            f"digit {bad.args[0]!r} outside the minimal greedy alphabet") from None
    max_rank = rank[max_digit]
    mid_ranks = frozenset(rank[p] for p in mid_triggers)

    undecided = False
    for k in range(1, npre + nper + 1):
        r_k = ranks[k - 1]
        if r_k == max_rank:
            rule, enc = RULE_TOP, top_enc
        elif r_k in mid_ranks:
            rule, enc = RULE_MID, mid_enc
        else:
            continue
        res = _tail_below_bound(ranks, npre, nper, k, enc)
        if res == "viol":
            return AdmissibilityReport(
                REJECTED, Violation(rule, k, _pair_factor_text(word, k)))
        if res == "undecided":
            undecided = True
    if not per:
        return AdmissibilityReport(PREFIX_OK)
    if undecided:
        return AdmissibilityReport(UNDECIDED)
    return AdmissibilityReport(ADMISSIBLE)


def is_admissible_lazy(word, ctx, bounds=None):
    """Lazy admissibility: the digitwise complement must be greedy-admissible."""
    alpha = minimal_alphabet(ctx)
    allowed = set(alpha.lazy)
    for p in word.preperiod + word.period:
        if p not in allowed:
            raise ValueError(f"digit {p!r} outside the minimal lazy alphabet")
    mirrored = complement_pairs(word, ctx.floor_beta)
    report = is_admissible_greedy(mirrored, ctx, bounds)
    if report.violation is None:
        return report
    v = report.violation
    return AdmissibilityReport(
        report.verdict, Violation(v.rule, v.position, _pair_factor_text(word, v.position)))


# -- run-length based checks for binary golden-ratio words ------------------------


def _require_binary(word):
    for d in word.preperiod + word.period:
        if d not in (0, 1):
            raise ValueError(f"digit {d} is not binary")


def _runs(seq):
    """Maximal constant blocks as (digit, length, start-index) triples."""
    out = []
    pos = 0
    for d in seq:
        if out and out[-1][0] == d:
            out[-1][1] += 1
        else:
            out.append([d, 1, pos])
        pos += 1
    return [tuple(run) for run in out]


def _stream_runs(word, copies=4):
    return _runs(word.preperiod + word.period * copies)


def _periodic_window(word):
    # every run that recurs forever starts once inside the second copy of
    # a non-constant period, and ends before the fourth copy does
    return len(word.preperiod) + 2 * len(word.period)


def golden_forbidden_factor_check(word):
    """Can this binary string be the greedy expansion of a point of the
    invariant subinterval for the golden-ratio base?

    Equivalent to the block shape: an even block of 0s, then alternating
    odd blocks of 1s and 0s forever.  Finite words are screened as
    prefixes of that shape.
    """
    _require_binary(word)
    pre, per = word.preperiod, word.period

    def first_run_violation(d, n, complete):
        if not complete:
            return None
        if d == 1 and n % 2 == 0:
            return Violation(RULE_FACTOR, 1, "1" * n + "0")
        if d == 0 and n % 2 == 1:
            return Violation(RULE_FACTOR, 1, "0" * n + "1")
        return None

    def interior_violation(d, n, start):
        if n % 2 == 0:
            other = 1 - d
            return Violation(RULE_FACTOR, start, f"{other}" + str(d) * n + f"{other}")
        return None

    if not per:
        runs = _runs(pre)
        for idx, (d, n, s) in enumerate(runs):
            complete = idx + 1 < len(runs)
            if idx == 0:
                v = first_run_violation(d, n, complete)
            elif complete:
                v = interior_violation(d, n, s)
            else:
                v = None
            if v:
                return AdmissibilityReport(REJECTED, v)
        return AdmissibilityReport(PREFIX_OK)

    if len(set(per)) == 1:
        d = per[0]
        return AdmissibilityReport(
            REJECTED, Violation(RULE_FACTOR, len(pre) + 1, f"{d}^omega"))
    window = _periodic_window(word)
    for idx, (d, n, s) in enumerate(_stream_runs(word)):
        if s >= window:
            break
        v = first_run_violation(d, n, True) if idx == 0 else interior_violation(d, n, s)
        if v:
            return AdmissibilityReport(REJECTED, v)
    return AdmissibilityReport(ADMISSIBLE)


def ito_sadahiro_admissible(word):
    """Admissibility for the golden-ratio Ito-Sadahiro system: between two
    1s the number of 0s must be even, and the word must not end in 010^omega."""
    _require_binary(word)
    pre, per = word.preperiod, word.period

    def gap_violations(runs, last_exclusive):
        for idx, (d, n, s) in enumerate(runs):
            if s >= last_exclusive:
                break
            complete = idx + 1 < len(runs)
            if d == 0 and idx >= 1 and complete and n % 2 == 1:
                return Violation(RULE_FACTOR, s, "1" + "0" * n + "1")
        return None

    if not per:
        v = gap_violations(_runs(pre), len(pre))
        if v:
            return AdmissibilityReport(REJECTED, v)
        return AdmissibilityReport(PREFIX_OK)

    if len(set(per)) == 1:
        if per[0] == 1:
            v = gap_violations(_runs(pre + per * 2), len(pre) + 1)
            if v:
                return AdmissibilityReport(REJECTED, v)
            return AdmissibilityReport(ADMISSIBLE)
        # eventually all zeros
        last_one = max((i for i, d in enumerate(pre) if d == 1), default=None)
        if last_one is None:
            return AdmissibilityReport(ADMISSIBLE)
        if last_one >= 1 and pre[last_one - 1] == 0:
            return AdmissibilityReport(
                REJECTED, Violation(RULE_FACTOR, last_one, "010^omega"))
        v = gap_violations(_runs(pre), len(pre))
        if v:
            return AdmissibilityReport(REJECTED, v)
        return AdmissibilityReport(ADMISSIBLE)

    v = gap_violations(_stream_runs(word), _periodic_window(word))
    if v:
        return AdmissibilityReport(REJECTED, v)
    return AdmissibilityReport(ADMISSIBLE)
