"""Admissibility of digit strings as greedy, lazy or Ito-Sadahiro expansions.

Every check is one rule: chosen tails of the word are compared with a
reference expansion (a bound) in the lexicographic or the alternate order.

* Pair words, greedy: every orbit of the squared-base greedy map falls
  into (l, l+1].  A pair string is a greedy expansion exactly when every
  tail after one of the two critical digit shapes stays lexicographically
  below a reference expansion of the left-continuous map, computed when
  first needed.
* Pair words, lazy: the digitwise complement must be greedy-admissible.
* Binary golden-ratio words, read two letters at a time, must be
  greedy-admissible pair words; they are read one letter at a time, by
  letter rows derived from phi's pair automaton.
* Binary golden-ratio Ito-Sadahiro words: every tail s satisfies
  d(l) <= s < d*(r) = 0 d(l) in the alternate order, where d(l) expands the
  left end of the domain (Ito & Sadahiro, Integers 2009).

When the bounds are eventually periodic the rule is a finite automaton (the
(-beta)-shift is sofic; Ito & Sadahiro 2009, Frougny & Lai 2009).  It reads
the word right to left.  Its state holds, for every position j of the coded
bounds, how the tail read so far compares with the bound from j: below,
equal, above, or "runs out" when a finite word ends first.  Reading a letter
x sets entry j to the sign of x - bound[j] where the letters differ, and
copies entry j + 1 (the period wrapping round) where they agree; the
alternate order negates both.  So the verdict for the tail after a critical
digit is known when the pass reaches that digit: one table lookup per letter,
and the last failing digit seen is the earliest one.  A finite word starts
from the all-"runs out" state, an eventually periodic word from the fixed
point of its reversed period.  One automaton over both bounds is built
breadth first over every letter, once per base, the first time a check
finds both bounds computed, and lives on the AdmissibilityBound.  A word
of digits is read as pairs by letter rows built from the pair rows once
per base, the first time they are needed (`_letter_rows`): a full row
and a half row per letter for each pair row, and rows where a pair
outside the alphabet leaves only such pairs to report.

Until then, and when a bound has no detected period (rational bases) or the
tables pass a size budget, each critical digit's tail is compared on its own
with `words._compare_tail`, computing only the bounds the word's critical
digits reach; a comparison that runs past the known prefix is undecided.
Reading `AdmissibilityBound.settled` computes both bounds, so the check
after it reads the automaton.
"""

from .field import ContextMismatchError, context_cached, phi_field
from .schemes import (DEFAULT_ORBIT_BUDGET, Interval, _pair_index, _pair_tiling, all_pair_digits,
                      build_ito_sadahiro_scheme, interval_I, run_scheme)
from .words import (EQ, LT, DigitString, _code, _compare_tail, _dataclass_fields,
                    _Record, _set, format_word)

ADMISSIBLE = "admissible"
REJECTED = "rejected"
PREFIX_OK = "prefix-ok"
UNDECIDED = "undecided"

RULE_TOP = "top-digit"
RULE_MID = "mid-digit"
RULE_FACTOR = "forbidden-factor"

# tail tables past this many entry computations (states x letters x bound
# positions) are not built; the per-digit fallback answers instead
_TAIL_TABLE_BUDGET = 1 << 20


class Violation(_Record):
    """Where a rule fails: the rule, the 1-based digit position, and the
    digits there as text (`factor`).  A check's violation formats its
    factor the first time it is read."""

    __slots__ = ("rule", "position", "_factor", "_span")
    _fields = ("rule", "position", "factor")

    @property
    def factor(self):
        if self._span is not None:   # a check's violation, read for the first time
            _set(self, "_factor", _factor_text(*self._span))
            _set(self, "_span", None)
        return self._factor

    @factor.setter
    def factor(self, text):   # the record's constructor sets the field here
        _set(self, "_factor", text)
        _set(self, "_span", None)


class AdmissibilityReport(_Record):
    """A verdict, and the violation that rejected the word, if it was."""

    __slots__ = _fields = ("verdict", "violation")
    _defaults = {"violation": None}
    __dataclass_fields__ = _dataclass_fields

    @property
    def ok(self):
        return self.verdict in (ADMISSIBLE, PREFIX_OK)


# the reports without a violation, shared (reports are immutable)
_PLAIN = {v: AdmissibilityReport(v) for v in (ADMISSIBLE, PREFIX_OK, UNDECIDED)}


class AlphabetInfo(_Record):
    """Minimal greedy alphabet, its lazy mirror, and the fullness predicate."""

    __slots__ = _fields = ("greedy", "lazy", "max_greedy", "min_lazy", "full")


@context_cached
def minimal_alphabet(ctx):
    """Pair digits that occur infinitely often in greedy expansions on the
    invariant subinterval: all pairs with b >= 1 plus the pure-integer digits
    below beta frac(beta), the first fb(fb + 1) + ceil(beta frac(beta)) pairs
    of the value order (fb = floor(beta)), all of them (full) exactly when
    beta^2 > fb(beta + 1).  The complement b:a -> (fb - b):(fb - a) reverses
    that order, so the lazy alphabet is as many pairs from the top."""
    pairs = all_pair_digits(ctx)
    n = _critical(ctx)[0]
    greedy, lazy = pairs[:n], pairs[len(pairs) - n:]
    return AlphabetInfo(greedy, lazy, greedy[-1], lazy[0], n == len(pairs))


@context_cached
def restricted_scheme(ctx):
    """The left-continuous squared-base greedy map on the invariant
    subinterval (l, l+1]: the minimal greedy alphabet, an initial segment of
    the value order, tiling it in cells (gamma_i, gamma_{i+1}], cut by
    greedy_breakpoint's formula."""
    l = interval_I(ctx).lo
    return _pair_tiling(ctx, minimal_alphabet(ctx).greedy, Interval(l, l + 1, False, True))


@context_cached
def _critical(ctx):
    """The size n = fb(fb + 1) + ceil(beta frac(beta)) of the minimal
    greedy alphabet (fb = floor(beta)), and the rule of each critical rank:
    the maximal digit at n - 1, and -b*beta + fb, b >= 1, at its place
    (fb - b)(fb + 1) + fb.  A letter's rank is its place in the value order."""
    fb = ctx.floor_beta
    n = fb * (fb + 1) + (ctx.beta() * ctx.frac_beta()).ceil()
    return n, {**dict.fromkeys(range(fb, fb * (fb + 1), fb + 1), RULE_MID), n - 1: RULE_TOP}


def _tail_tables(bounds, letters, alternate, budget=None):
    """Breadth-first closure of the tail states of eventually periodic
    coded bounds over the letters 0..letters-1, read right to left.

    A state has one entry per position of the concatenated bounds: LT, EQ or
    GT as the tail read so far is below, equal to or above the bound from
    there, or None when a finite word runs out first; each bound's entries
    start where the bounds before it end.  Returns the states, the
    next-state table and the two start states (all None; all EQ).  None
    when `budget` entry computations do not suffice."""
    at, succ = [], []
    for digits, loop in bounds:
        first = len(at)
        at.extend(digits)
        succ.extend(range(first + 1, first + len(digits)))
        succ.append(first + loop)
    flip = -1 if alternate else 1

    def read(state, x):
        out = []
        for b, s in zip(at, succ):
            c = (x > b) - (x < b) if x != b else state[s]
            out.append(c if c is None else flip * c)
        return tuple(out)

    starts = ((None,) * len(at), (EQ,) * len(at))
    states = list(dict.fromkeys(starts))
    index = {v: i for i, v in enumerate(states)}
    trans = []
    while len(trans) < len(states):
        if budget is not None and len(states) * letters * (len(at) + 1) > budget:
            return None
        row = []
        for x in range(letters):
            v = read(states[len(trans)], x)
            if v not in index:
                index[v] = len(states)
                states.append(v)
            row.append(index[v])
        trans.append(tuple(row))
    return states, trans, tuple(index[v] for v in starts)


def _link(tables, outcome, letters):
    """The tables as linked rows keyed by the actual letters, given in rank
    order (letters[x] has rank x): row[letter] is (next row, outcome), the
    outcome being None or the rule that rejects at this letter.  Returns
    the two start rows."""
    states, trans, starts = tables
    rows = [{} for _ in states]
    for row, state, nxt in zip(rows, states, trans):
        for x, letter in enumerate(letters):
            row[letter] = (rows[nxt[x]], outcome(state, x, states[nxt[x]]))
    return tuple(rows[s] for s in starts)


def _letter_rows(starts, fb):
    """Linked rows over the letters 0..fb, read right to left, of the words
    whose pairs b:a (from an even place) the pair rows `starts` read: a pair
    row's letter row maps a to (half row, None), and the half row maps b to
    (the letter row of the pair's next row, its outcome).  A pair outside
    the rows' alphabet is a forbidden factor, and steps to rows that report
    only such pairs, so the first of them wins over any rule.  Returns the
    letter rows of the starts."""
    digits, full, todo, out = range(fb + 1), {}, list(starts), {}
    for row in todo:   # one letter row for every pair row the starts reach
        if id(row) not in full:
            full[id(row)] = row, {}
            todo.extend(nxt for nxt, _ in row.values())
    for row, letters in full.values():
        letters.update((a, ({b: (full[id(row[b, a][0])][1], row[b, a][1]) if (b, a) in row
                             else (out, RULE_FACTOR) for b in digits}, None)) for a in digits)
    # the rows after a pair outside: one full row, and a half row per letter
    out.update((a, ({b: (out, None if (b, a) in starts[0] else RULE_FACTOR) for b in digits},
                    None)) for a in digits)
    return tuple(full[id(s)][1] for s in starts)


@context_cached
def _letter_tails(ctx):
    """The letter rows of the base's greedy tail automaton, built the first
    time a letter word is checked, not with the automaton."""
    return _letter_rows(reference_bounds(ctx)._tails()[0], ctx.floor_beta)


def _scan(starts, word):
    """One right-to-left pass of linked rows over a word: the rule and
    0-based position of the leftmost rejecting letter, or None, None."""
    row, periodic = starts
    pre, per = word.preperiod, word.period
    if per:
        row = periodic   # iterate to the state of per^omega; no entry changes twice
        while True:
            last = row
            for x in reversed(per):
                row = row[x][0]
            if row is last:
                break
    rule = where = None
    letters = pre + per
    end = len(letters) - 1
    for i, x in enumerate(reversed(letters)):
        row, out = row[x]
        if out is not None:
            rule, where = out, end - i
    return rule, where


class AdmissibilityBound(_Record):
    """The two reference expansions the admissibility test compares
    against, one per rule, each computed the first time it is read, and one
    tail automaton over both, built by the first check that finds both
    computed.  A stream whose words carry one kind of critical digit never
    runs the other orbit, so it stays on the per-digit comparison; reading
    `settled` runs both and switches the next check to the automaton."""

    __slots__ = ("ctx", "orbit_budget", "_bounds", "_automaton")
    _fields = ("ctx", "orbit_budget")

    def __init__(self, ctx, orbit_budget):
        super().__init__(ctx, orbit_budget)
        _set(self, "_bounds", {})
        _set(self, "_automaton", None)

    @property
    def top(self):
        """The expansion that follows the maximal alphabet digit."""
        return self._bound(RULE_TOP)[0]

    @property
    def mid(self):
        """The expansion that follows digits -b*beta + floor(beta), b >= 1."""
        return self._bound(RULE_MID)[0]

    @property
    def settled(self):
        return self.top.ok and self.mid.ok

    def _bound(self, rule):
        """The rule's expansion and its word coded by letter rank; the
        orbit runs the first time the rule is read."""
        bound = self._bounds.get(rule)
        if bound is None:
            scheme = restricted_scheme(self.ctx)
            if rule == RULE_TOP:
                start = scheme.step(scheme.domain.hi)[1]
            else:
                start = interval_I(self.ctx).lo + self.ctx.frac_beta()
            exp = run_scheme(scheme, start, orbit_budget=self.orbit_budget)
            bound = self._bounds.setdefault(rule, (exp, _ranked(exp.word, self.ctx, False)))
        return bound

    def _tails(self):
        """Greedy and lazy start rows of the tail automaton over both bounds,
        built (running both orbits) the first time it is asked for; None when
        a bound has no period or the tables pass the budget."""
        if self._automaton is None:
            _set(self, "_automaton", self.settled and self._build_tails())
        return self._automaton or None

    def _build_tails(self):
        alpha, critical = minimal_alphabet(self.ctx), _critical(self.ctx)[1]
        top, mid = self._bound(RULE_TOP)[1], self._bound(RULE_MID)[1]
        tables = _tail_tables([top, mid], len(alpha.greedy), False, _TAIL_TABLE_BUDGET)
        if tables is None:
            return False
        first = {RULE_TOP: 0, RULE_MID: len(top[0])}   # where each bound's entries start

        def outcome(state, x, _):
            rule = critical.get(x)
            c = None if rule is None else state[first[rule]]   # None: a finite word ends first
            return rule if c is not None and c >= EQ else None   # nor is equality admissible

        return _link(tables, outcome, alpha.greedy), _link(tables, outcome, alpha.lazy[::-1])


def reference_bounds(ctx, orbit_budget=DEFAULT_ORBIT_BUDGET):
    """The (memoized) reference expansions for the base."""
    return _reference_bounds(ctx, orbit_budget)


@context_cached
def _reference_bounds(ctx, orbit_budget):
    return AdmissibilityBound(ctx, orbit_budget)


def _factor_text(word, start, length):
    """The `length` digits from 0-based `start`, cut at the end of a finite word."""
    stop = start + length if word.period else min(start + length, len(word.preperiod))
    return format_word(DigitString.finite(word.prefix(stop)[start:]))


def _ranked(word, ctx, lazy):
    """The word coded by letter rank: a pair's place in the value order, or
    for a lazy word (fb + 1)^2 - 1 less it, as the complement reverses that
    order.  A letter with no place, or ranked past the minimal alphabet, is
    an error."""
    n = _critical(ctx)[0]
    top = (ctx.floor_beta + 1) ** 2 - 1
    side = "lazy" if lazy else "greedy"

    def rank(p):
        try:
            r = top - _pair_index(ctx, p) if lazy else _pair_index(ctx, p)
        except ValueError:
            r = n
        if r >= n:
            raise ValueError(f"digit {p!r} outside the minimal {side} alphabet")
        return r

    return _code(word, rank)


def _by_critical_digit(coded, bounds):
    """Each critical digit's tail compared on its own, bounds computed as
    they are needed: the check until both bounds are known, and for bounds
    with no period."""
    critical, undecided = _critical(bounds.ctx)[1], False
    for k, r in enumerate(coded[0], 1):   # k: the critical digit's 1-based position
        rule = critical.get(r)
        if rule is None:
            continue
        c = _compare_tail(coded, k, bounds._bound(rule)[1])
        if c is None:
            undecided = True
        elif c >= EQ:
            return rule, k - 1, undecided
    return None, None, undecided


def _pair_check(word, ctx, bounds, lazy):
    """The greedy or lazy report on a pair word: one pass of the tail
    automaton once both bounds are computed, else the per-digit comparison,
    which computes only the bounds the word's critical digits reach."""
    if bounds is None:
        bounds = reference_bounds(ctx)
    elif bounds.ctx is not ctx and bounds.ctx != ctx:
        raise ContextMismatchError("bounds of a different base")
    tails = bounds._tails() if len(bounds._bounds) == 2 else None
    if tails is None:
        rule, where, undecided = _by_critical_digit(_ranked(word, ctx, lazy), bounds)
        return _report(word, rule, where, 4, undecided)
    try:
        rule, where = _scan(tails[lazy], word)
    except (KeyError, TypeError):   # TypeError: an unhashable letter
        _ranked(word, ctx, lazy)   # names the first digit outside
        raise
    return _report(word, rule, where, 4)


def _report(word, rule, where, length, undecided=False):
    """The verdict on `word`: rejected by `rule` at the 0-based digit
    `where`, the violation's factor being the `length` digits from there;
    else prefix-ok for a finite word, undecided or admissible."""
    if rule is None:
        return _PLAIN[PREFIX_OK if not word.period else UNDECIDED if undecided else ADMISSIBLE]
    violation = Violation.__new__(Violation)   # its factor is formatted when first read
    _set(violation, "rule", rule)
    _set(violation, "position", where + 1)
    _set(violation, "_span", (word, where, length))
    return AdmissibilityReport(REJECTED, violation)


def is_admissible_greedy(word, ctx, bounds=None):
    """Admissibility of a pair-digit string over the minimal greedy
    alphabet: every tail after a critical digit must stay below its bound.
    A finite string can only be screened for violations within the word.
    Bounds of another base raise ContextMismatchError."""
    return _pair_check(word, ctx, bounds, False)


def is_admissible_lazy(word, ctx, bounds=None):
    """Lazy admissibility: the digitwise complement must be greedy-admissible.
    The greedy tables are read through complemented letters, so no
    complement word is built."""
    return _pair_check(word, ctx, bounds, True)


# -- binary golden-ratio words ---------------------------------------------------------

def _require_binary(word):
    digits = word.preperiod + word.period
    if not _BINARY.issuperset(digits):
        d = next(d for d in digits if d not in _BINARY)
        raise ValueError(f"digit {d} is not binary")


_BINARY = frozenset((0, 1))


def golden_forbidden_factor_check(word):
    """Can this binary string be the greedy expansion of a point of the
    invariant subinterval for the golden-ratio base?  Read two letters at a
    time, it must be a greedy-admissible pair word: one pass of the letter
    rows of phi's tail automaton, where the first pair 0:1 (outside the
    alphabet) is the verdict, else the first rule that fails.  A finite word
    of odd length is read with a 0 appended: that extension passes whenever
    the 1-extension does, since a last 0 plus 1 is the pair 0:1, and 1:0
    ranks below 1:1 and is not a critical digit.  A periodic word is
    realigned to pairs: an odd preperiod takes the first period letter, and
    an odd period is doubled."""
    _require_binary(word)
    pre, per = word.preperiod, word.period
    if len(pre) % 2:
        pre, per = pre + (per[:1] or (0,)), per[1:] + per[:1]
    if len(per) % 2:
        per += per
    # the realigned word is taken as it stands, not made canonical again
    rule, where = _scan(_letter_tails(phi_field()), DigitString._of_orbit(pre, per))
    return _report(word, rule and RULE_FACTOR, where, 2 if rule == RULE_FACTOR else 8)


@context_cached
def _ito_sadahiro_tails(ctx):
    """Start rows of the alternate-order tail automaton of d(l), the
    expansion of the left end of the Ito-Sadahiro domain.  A letter is
    rejected when the tail from it lies below d(l), or when it is a 0 before
    a tail equal to d(l): the tail from that 0 is d*(r) itself."""
    scheme = build_ito_sadahiro_scheme(ctx)
    low = _code(run_scheme(scheme, scheme.domain.lo).word)
    tables = _tail_tables([low], ctx.floor_beta + 1, True)

    def outcome(state, x, after):
        below = after[0] == LT or (x == 0 and state[0] == EQ)
        return RULE_FACTOR if below else None

    return _link(tables, outcome, range(ctx.floor_beta + 1))


def ito_sadahiro_admissible(word):
    """Admissibility for the golden-ratio Ito-Sadahiro system: every tail s
    satisfies d(l) <= s < d*(r) in the alternate order.  d*(r) = 0 d(l)
    (d(l) = 1(0) is not purely periodic), so 0s is below d*(r) exactly when
    s is above d(l): one comparison per tail settles both."""
    _require_binary(word)
    return _report(word, *_scan(_ito_sadahiro_tails(phi_field()), word), 8)
