"""Admissibility of digit strings as greedy, lazy or Ito-Sadahiro expansions.

Every check is one rule (`words._compare_tail`): chosen tails of the word are
compared, digit by digit, with a reference expansion in the lexicographic
or the alternate order.

* Pair words, greedy: every orbit of the squared-base greedy map falls
  into (l, l+1].  A pair string is a greedy expansion exactly when every
  tail after one of the two critical digit shapes stays lexicographically
  below a reference expansion of the left-continuous map, computed when
  first needed.  A reference with no detected period (rational bases)
  makes comparisons that run past its prefix undecided.
* Pair words, lazy: the digitwise complement must be greedy-admissible.
* Binary golden-ratio words, read two letters at a time, must be
  greedy-admissible pair words.
* Binary golden-ratio Ito-Sadahiro words: every tail s satisfies
  d(l) <= s < d*(r) = 0 d(l) in the alternate order, where d(l) expands the
  left end of the domain (Ito & Sadahiro, Integers 2009).
"""

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

from .field import context_cached, phi_field
from .schemes import (DEFAULT_ORBIT_BUDGET, Interval, Scheme, SchemeCell,
                      _beta2_tables, all_pair_digits, build_ito_sadahiro_scheme,
                      interval_I, run_scheme)
from .words import (DigitString, PairDigit, _code, _compare_tail,
                    complement_pairs, format_word, psi_inverse)

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
    greedy = tuple(p for p in all_pair_digits(ctx)
                   if p.b >= 1 or threshold.compare(p.a) > 0)
    lazy = tuple(PairDigit(fb - p.b, fb - p.a) for p in reversed(greedy))
    full = (ctx.beta() * ctx.beta()).compare(ctx.beta() * fb + fb) > 0
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


@context_cached
def _pair_ranks(ctx):
    """Each minimal-alphabet digit's place in the value order, the rank of
    the maximal digit, and the ranks of the digits -b*beta + floor(beta)."""
    alpha = minimal_alphabet(ctx)
    rank = {p: i for i, p in enumerate(alpha.greedy)}
    mid = frozenset(rank[p] for p in alpha.greedy if p.b >= 1 and p.a == ctx.floor_beta)
    return rank, len(alpha.greedy) - 1, mid


@dataclass(frozen=True)
class AdmissibilityBound:
    """The two reference expansions the admissibility test compares
    against.  Each is computed the first time it is read."""

    ctx: object
    orbit_budget: int

    @cached_property
    def top(self):
        """The expansion that follows the maximal alphabet digit."""
        scheme = restricted_scheme(self.ctx)
        _, after_top = scheme.step(scheme.domain.hi)
        return run_scheme(scheme, after_top, orbit_budget=self.orbit_budget)

    @cached_property
    def mid(self):
        """The expansion that follows digits -b*beta + floor(beta), b >= 1."""
        start = interval_I(self.ctx).lo + self.ctx.frac_beta()
        return run_scheme(restricted_scheme(self.ctx), start,
                          orbit_budget=self.orbit_budget)

    @property
    def settled(self):
        return self.top.ok and self.mid.ok

    @cached_property
    def _top_code(self):
        return _code(self.top.word, _pair_ranks(self.ctx)[0])

    @cached_property
    def _mid_code(self):
        return _code(self.mid.word, _pair_ranks(self.ctx)[0])


def reference_bounds(ctx, orbit_budget=DEFAULT_ORBIT_BUDGET):
    """The (memoized) reference expansions for the base."""
    return _reference_bounds(ctx, orbit_budget)


@context_cached
def _reference_bounds(ctx, orbit_budget):
    return AdmissibilityBound(ctx, orbit_budget)


def _factor_text(word, start, length):
    """The `length` digits from 0-based `start`, cut at the end of a finite word."""
    stop = start + length if word.period else min(start + length, len(word.preperiod))
    return format_word(DigitString.finite(word.digit_at(i) for i in range(start, stop)))


def is_admissible_greedy(word, ctx, bounds=None):
    """Admissibility of a pair-digit string over the minimal greedy
    alphabet: every tail after a critical digit must stay below its bound.
    A finite string can only be screened for violations within the word."""
    if bounds is None:
        bounds = reference_bounds(ctx)
    rank, top_rank, mid_ranks = _pair_ranks(ctx)
    try:
        coded = _code(word, rank)
    except KeyError as bad:
        raise ValueError(
            f"digit {bad.args[0]!r} outside the minimal greedy alphabet") from None
    undecided = False
    for k, r in enumerate(coded[0], 1):   # k: the trigger's 1-based position
        if r == top_rank:
            rule, bound = RULE_TOP, bounds._top_code
        elif r in mid_ranks:
            rule, bound = RULE_MID, bounds._mid_code
        else:
            continue
        c = _compare_tail(coded, k, bound)
        if c is None:
            undecided = True
        elif c >= 0:   # equality is not admissible either
            return AdmissibilityReport(
                REJECTED, Violation(rule, k, _factor_text(word, k - 1, 4)))
    if not word.period:
        return AdmissibilityReport(PREFIX_OK)
    return AdmissibilityReport(UNDECIDED if undecided else ADMISSIBLE)


def is_admissible_lazy(word, ctx, bounds=None):
    """Lazy admissibility: the digitwise complement must be greedy-admissible."""
    allowed = minimal_alphabet(ctx).lazy
    for p in word.preperiod + word.period:
        if p not in allowed:
            raise ValueError(f"digit {p!r} outside the minimal lazy alphabet")
    report = is_admissible_greedy(complement_pairs(word, ctx.floor_beta), ctx, bounds)
    v = report.violation
    if v is None:
        return report
    return replace(report, violation=replace(v, factor=_factor_text(word, v.position - 1, 4)))


# -- binary golden-ratio words ---------------------------------------------------------

def _require_binary(word):
    for d in word.preperiod + word.period:
        if d not in (0, 1):
            raise ValueError(f"digit {d} is not binary")


def golden_forbidden_factor_check(word):
    """Can this binary string be the greedy expansion of a point of the
    invariant subinterval for the golden-ratio base?  Read two letters at a
    time, it must be a greedy-admissible pair word.  A finite word of odd
    length passes when one of its two one-letter extensions does."""
    _require_binary(word)
    if word.is_finite and len(word) % 2:
        reports = [_golden_pairs(word, DigitString.finite(word.preperiod + (d,)))
                   for d in (0, 1)]
        return next((r for r in reports if r.ok), reports[0])
    return _golden_pairs(word, word)


def _golden_pairs(word, bits):
    """Greedy pair check of the even or infinite `bits`, reported on `word`."""
    phi = phi_field()
    pairs = psi_inverse(bits)
    try:
        report = is_admissible_greedy(pairs, phi)
    except ValueError:   # the pair 0:1 lies outside the minimal alphabet
        k, length = (pairs.preperiod + pairs.period).index(PairDigit(0, 1)) + 1, 2
    else:
        if report.violation is None:
            return report
        k, length = report.violation.position, 8
    return AdmissibilityReport(
        REJECTED, Violation(RULE_FACTOR, 2 * k - 1, _factor_text(word, 2 * k - 2, length)))


@context_cached
def _ito_sadahiro_low(ctx):
    """The coded expansion d(l) of the left end of the Ito-Sadahiro domain."""
    scheme = build_ito_sadahiro_scheme(ctx)
    return _code(run_scheme(scheme, scheme.domain.lo).word)


def ito_sadahiro_admissible(word):
    """Admissibility for the golden-ratio Ito-Sadahiro system: every tail s
    satisfies d(l) <= s < d*(r) in the alternate order.  d(l) starts with the
    top digit, so a tail that starts lower lies above it at its first letter.
    d*(r) = 0 d(l) (d(l) = 1(0) is not purely periodic), so 0s is below d*(r)
    exactly when s is above d(l): one comparison per tail settles both."""
    _require_binary(word)
    low = _ito_sadahiro_low(phi_field())
    coded = _code(word)
    digits = coded[0]
    for k, d in enumerate(digits):
        c = _compare_tail(coded, k, low, alternate=True) if d == low[0][0] else 1
        if c == 0 and k and digits[k - 1] == 0:
            k -= 1   # the tail from the 0 before is d*(r) itself
        elif c != -1:
            continue
        return AdmissibilityReport(
            REJECTED, Violation(RULE_FACTOR, k + 1, _factor_text(word, k, 8)))
    return AdmissibilityReport(ADMISSIBLE if word.period else PREFIX_OK)
