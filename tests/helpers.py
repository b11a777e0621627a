"""Shared test utilities: independent oracles and exact samplers.

The oracles here deliberately re-derive results by other routes (pure
Fraction bisection, factor scanning on unrolled words, a scan of the
alphabet in exact arithmetic for the feasible digits) so the library
implementations are checked against something they do not share code
with.  Where an oracle computes with elements, it uses only the library's
exact arithmetic and interval_I, never its digit rules.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate
from math import gcd, isqrt, lcm
from operator import mul

from negabase import DigitString, PairDigit, interval_I, minimal_alphabet
from negabase.field import _dyadic_bounds, _lattice_powers


def eval_int_poly(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def divisor_rational_roots(coeffs):
    """The set of rational roots of a nonzero integer polynomial by the
    rational root theorem: 0 for each factor x, then every +-u/v with u
    dividing the lowest and v the highest remaining coefficient."""
    cs = list(coeffs)
    while not cs[-1]:
        cs.pop()
    roots = set()
    while not cs[0]:
        roots.add(Fraction(0))
        cs.pop(0)

    def divisors(n):
        n = abs(n)
        small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
        return set(small) | {n // d for d in small}

    n = len(cs) - 1
    for u in divisors(cs[0]):
        for v in divisors(cs[-1]):
            for w in (u, -u):
                # v^n * p(w/v), in integers
                if sum(c * w ** i * v ** (n - i) for i, c in enumerate(cs)) == 0:
                    roots.add(Fraction(w, v))
    return roots


def bisection_sign(min_poly, lo, hi, element_coeffs, rounds=256):
    """Sign of sum(element_coeffs[i] * root^i) for the root of min_poly
    bracketed by (lo, hi), by plain bisection plus interval evaluation.

    Returns None when still undecided after `rounds` halvings (the caller
    should treat that as "element is probably zero").
    """
    lo, hi = Fraction(lo), Fraction(hi)
    s_lo = 1 if eval_int_poly(min_poly, lo) > 0 else -1
    for _ in range(rounds):
        a, b = Fraction(0), Fraction(0)
        for c in reversed(element_coeffs):
            cands = (a * lo, a * hi, b * lo, b * hi)
            a, b = min(cands) + c, max(cands) + c
        if a > 0:
            return 1
        if b < 0:
            return -1
        mid = (lo + hi) / 2
        v = eval_int_poly(min_poly, mid)
        if v == 0:
            lo, hi = (3 * lo + hi) / 4, (lo + 3 * hi) / 4
            continue
        if (1 if v > 0 else -1) == s_lo:
            lo = mid
        else:
            hi = mid
    return None


def bisection_floor(min_poly, lo, hi, element_coeffs):
    """floor(sum(element_coeffs[i] * root^i)): bisect the root until an
    interval evaluation of the element is narrower than 1/2, then settle
    between its floor n and n + 1 with `bisection_sign` (undecided counts
    as zero)."""
    lo, hi = Fraction(lo), Fraction(hi)
    s_lo = eval_int_poly(min_poly, lo) > 0
    while True:
        a, b = Fraction(0), Fraction(0)
        for c in reversed(element_coeffs):
            cands = (a * lo, a * hi, b * lo, b * hi)
            a, b = min(cands) + c, max(cands) + c
        if b - a < Fraction(1, 2):
            break
        mid = (lo + hi) / 2
        v = eval_int_poly(min_poly, mid)
        if v == 0:
            lo = hi = mid
        elif (v > 0) == s_lo:
            lo = mid
        else:
            hi = mid
    n = a.numerator // a.denominator
    shifted = (Fraction(element_coeffs[0]) - (n + 1),) + tuple(element_coeffs[1:])
    return n + 1 if (bisection_sign(min_poly, lo, hi, shifted) or 0) >= 0 else n


def reference_mul(min_poly, a, b):
    """Product of two Fraction coefficient vectors modulo min_poly, which
    must be squarefree with no rational root (it is then the modulus).

    The schoolbook product, then each power beta^k with k >= d folded back
    by its reduced Fraction row: the arithmetic the integer vectors of
    negabase.field must reproduce exactly.
    """
    lead = Fraction(min_poly[-1])
    d = len(min_poly) - 1
    top = [-Fraction(c) / lead for c in min_poly[:d]]   # beta^d
    rows = {}
    row = top
    for k in range(d, 2 * d - 1):
        rows[k] = row
        row = [Fraction(0)] + row[:-1]
        row = [r + rows[k][-1] * t for r, t in zip(row, top)]
    prod = [Fraction(0)] * (2 * d - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    out = list(prod[:d])
    for k in range(d, 2 * d - 1):
        c = prod[k]
        if c:
            for i in range(d):
                out[i] += c * rows[k][i]
    return tuple(out)


def reference_eval_digits(word, base, digit_value=None):
    """sum digit_i * base^(-i) of a finite or eventually periodic word, one
    element operation at a time: the preperiod folded from its end by 1/base,
    the period by base and summed in closed form, then shifted by
    (1/base)^|preperiod|.  The route schemes.eval_digits took before its
    integer Horner passes."""
    ctx = base.context
    value = ctx.element if digit_value is None else digit_value
    binv = base.inverse()
    total = ctx.zero()
    for d in reversed(word.preperiod):
        total = (total + value(d)) * binv
    if word.period:
        acc = ctx.zero()
        for d in word.period:
            acc = acc * base + value(d)
        tail = acc * ((base ** len(word.period)) - 1).inverse()
        total = total + tail * (binv ** len(word.preperiod))
    return total


def scan_steps(y):
    """[(a, -beta*y - a)] for every digit a whose remainder lies in I,
    ascending: each digit of the alphabet tested in exact arithmetic."""
    ctx = y.context
    I = interval_I(ctx)
    z = -(ctx.beta() * y)
    steps = [(a, z - a) for a in range(ctx.floor_beta + 1)]
    return [(a, w) for a, w in steps if I.contains(w)]


def scan_merged(x, depth):
    """(count, max, min) of the extendable length-`depth` prefixes of x, by a
    breadth-first loop over scan_steps that keeps one entry per exact
    remainder, keyed by its reduced (num, den): the number of prefixes that
    reach it and the alternate-order greatest and least of them."""
    def alt(p):   # a larger digit at an odd (1-based) place makes a smaller word
        return [d if i % 2 else -d for i, d in enumerate(p)]

    level = {(x.num, x.den): (x, 1, (), ())}
    for _ in range(depth):
        nxt = {}
        for y, n, hi, lo in level.values():
            for a, w in scan_steps(y):
                key, m, h, l = (w.num, w.den), n, hi + (a,), lo + (a,)
                if key in nxt:
                    _, m0, h0, l0 = nxt[key]
                    m, h, l = m + m0, max(h, h0, key=alt), min(l, l0, key=alt)
                nxt[key] = (w, m, h, l)
        level = nxt
    states = level.values()
    return (sum(n for _, n, _, _ in states), max((h for _, _, h, _ in states), key=alt),
            min((l for _, _, _, l in states), key=alt))


def scan_expansion(x, depth, use_min=True):
    """The first `depth` greedy (use_min) or lazy digits of x in base -beta,
    by scanning: the smallest and the largest feasible digit, in turn."""
    digits = []
    for _ in range(depth):
        a, x = scan_steps(x)[0 if use_min else -1]
        digits.append(a)
        use_min = not use_min
    return DigitString.finite(digits)


def reference_stepper(scheme, x):
    """(step, start) along the scheme's orbit from x: the orbit kernel's step
    as one closure, the step that schemes writes out, inside its orbit loop,
    and compiles per degree.
    Its own table over one common denominator L holds, per cell, affine rows
    (row j of L*base, -L*(cell value)_j), so that w_j = row_j . (v, D); the
    64-bit cut bounds made monotone for bisection; the digits; and k, which
    every common factor of a next state (w, D*L) divides when v/D is reduced.
    A straddle goes to the scheme's own _straddled, so the counters rise as
    the kernel's do."""
    ctx, cells, d = scheme.base.context, scheme.cells, scheme.base.context.degree
    ys = [scheme.base * ctx.beta() ** j for j in range(d)] + [c.value for c in cells]
    L = lcm(*(y.den for y in ys))
    ys = [tuple(c * (L // y.den) for c in y.num) for y in ys]
    affine = tuple(tuple((*row, -c) for row, c in zip(zip(*ys[:d]), y)) for y in ys[d:])
    bounds = [_dyadic_bounds(c.interval.hi) for c in cells[:-1]]
    lo = tuple(accumulate(reversed([lo for lo, _ in bounds]), min))[::-1]
    hi = tuple(accumulate([hi for _, hi in bounds], max))
    digits = tuple(c.digit for c in cells)
    k = 1 if L == 1 else (L * lcm(*(c.value.den for c in cells))
                          * scheme.base.inverse().den * ctx._table_den)
    powers, gap = _lattice_powers(ctx)
    D0 = x.den
    lo0, hi0 = tuple(b * D0 for b in lo), tuple(b * D0 for b in hi)

    def step(s):
        v, D = s
        t = sum(map(mul, v, powers))   # 2^64 * D * y, up to e
        e = gap * sum(map(abs, v))
        if D == D0:
            i, j = bisect_left(hi0, t - e), bisect_right(lo0, t + e)
        else:
            i, j = bisect_left(hi, -((e - t) // D)), bisect_right(lo, (t + e) // D)
        if i != j:
            i = scheme._straddled(v, D, i, j)
        vD = (*v, D)
        w = tuple([sum(map(mul, row, vD)) for row in affine[i]])
        if L != 1:   # lowest terms: a common factor of w and D*L divides k
            D *= L
            g = gcd(gcd(k, D), *w)
            if g != 1:
                w, D = tuple(c // g for c in w), D // g
        return digits[i], (w, D)

    return step, (x.num, x.den)


# every algebraic-integer base of the tests: a monic integer modulus
LATTICE_BASES = {
    "phi": ((-1, -1, 1), 1, 2),
    "tribonacci": ((-1, -1, -1, 1), 1, 2),
    "rt3": ((-2, -2, 1), Fraction(27, 10), Fraction(28, 10)),
    "tetranacci": ((-1, -1, -1, -1, 1), 1, 2),
    "reducible": ((-1, -1, 0, -1, 1), 1, 2),
    "cubic": ((-1, 0, -3, 1), 3, 4),
    # sqrt(3) is not a Pisot number: the orbits run to the budget
    "sqrt3": ((-3, 0, 1), 1, 2),
}


# rational and non-monic bases: no lattice Z[beta] holds their orbits
OFF_LATTICE_BASES = {
    "seven-quarters": ((-7, 4), 1, 2),
    "non-monic": ((-1, -3, 2), 1, 2),
    "fourteen-fifths": ((-14, 5), 2, 3),
    "seven-halves": ((-7, 2), 3, 4),
    "ten-thirds": ((-10, 3), 3, 4),
    "non-monic-wide": ((-2, -5, 2), 2, 3),
}


# the rational and non-monic bases walk the same kernel over a growing denominator
WALK_BASES = {**LATTICE_BASES, **OFF_LATTICE_BASES}


def tie_offset(ctx):
    """beta - L/2^128 < 2^-128, L/2^128 the lower end of a dyadic bracket of
    beta, or 2^-100 for a dyadic beta, which is its own bracket: a point this
    far off a cut is beyond every 64-bit bound."""
    eps = ctx.beta() - Fraction(ctx.dyadic_bracket(128)[0], 2 ** 128)
    return ctx.element(Fraction(1, 2 ** 100)) if eps.is_zero() else eps


def random_fraction(rng, lo, hi, denom=10**4):
    return Fraction(lo) + (Fraction(hi) - Fraction(lo)) * Fraction(rng.randrange(denom + 1), denom)


def random_point(rng, interval, denom=10**4, interior=True):
    """Random exact element of an Interval; interior=True avoids endpoints."""
    span = interval.hi - interval.lo
    top = denom - 1 if interior else denom
    start = 1 if interior else 0
    t = Fraction(rng.randrange(start, top + 1), denom)
    return interval.lo + span * t


# -- factor scanning on eventually periodic words -------------------------------


def period_is_rotation_of(word, cycle):
    """Does the word end in the periodic repetition of (a rotation of) cycle?"""
    if word.is_finite:
        return False
    per = word.period
    cyc = tuple(cycle)
    if len(per) != len(cyc):
        return False
    doubled = cyc + cyc
    return any(doubled[i:i + len(cyc)] == per for i in range(len(cyc)))


def forbidden_factor_reject(word, factors, cycles):
    """Independent forbidden-factor predicate: True when the word must be
    rejected (contains a finite forbidden factor, or eventually repeats
    one of the forbidden cycles).

    A factor of an eventually periodic word starts in its preperiod or
    first period, so the word is unrolled once, far enough to read the
    longest factor, and every length-L window of that prefix, a factor of
    the word, goes into one set per factor length L."""
    digits, per = word.preperiod, word.period
    if per:
        longest = max(map(len, factors), default=1)
        digits += per * -(-(len(per) + longest - 1) // len(per))
    windows = {}
    for f in factors:
        L = len(f)
        if L not in windows:
            windows[L] = set(zip(*[digits[j:] for j in range(L)]))
        if tuple(f) in windows[L]:
            return True
    if per:
        for cyc in cycles:
            if period_is_rotation_of(word, cyc):
                return True
    return False


def all_words(alphabet, length):
    if length == 0:
        yield ()
        return
    for rest in all_words(alphabet, length - 1):
        for a in alphabet:
            yield rest + (a,)


def eventually_periodic_words(alphabet, max_total):
    """Every u(v)^omega with |u| + |v| <= max_total over the alphabet."""
    for total in range(1, max_total + 1):
        for per_len in range(1, total + 1):
            pre_len = total - per_len
            for pre in all_words(alphabet, pre_len):
                for per in all_words(alphabet, per_len):
                    yield DigitString(pre, per)


# -- per-critical-digit admissibility reference ----------------------------------


def tail_compare(word, start, bound, key=None, alternate=False):
    """-1, 0 or 1 as word[start:] is below, equal to or above the bound, read
    digit by digit (by `key`, and with odd positions reversed in the
    alternate order); None when a finite word or bound ends before the two
    differ."""
    word_end = None if word.period else len(word.preperiod)
    bound_end = None if bound.period else len(bound.preperiod)
    # two infinite words that agree this far agree forever
    horizon = (len(word.preperiod) + len(word.period) + len(bound.preperiod)
               + max(len(word.period), 1) * max(len(bound.period), 1))
    for n in range(horizon):
        if word_end is not None and start + n >= word_end:
            return None
        if bound_end is not None and n >= bound_end:
            return None
        x, y = word.digit_at(start + n), bound.digit_at(n)
        if key is not None:
            x, y = key(x), key(y)
        if x != y:
            c = 1 if x > y else -1
            return -c if alternate and n % 2 == 0 else c
    return 0


def factor_text(word, start, length):
    """The `length` digits from 0-based `start` (cut at the end of a finite
    word) as text: b:a pairs joined by dots, or one-character digits."""
    stop = start + length if word.period else min(start + length, len(word.preperiod))
    digits = [word.digit_at(i) for i in range(start, stop)]
    if digits and isinstance(digits[0], tuple):
        return ".".join(f"{b}:{a}" for b, a in digits)
    return "".join(str(d) for d in digits)


def report_tuple(report):
    """An AdmissibilityReport as (verdict, rule, position, factor)."""
    v = report.violation
    if v is None:
        return report.verdict, None, None, None
    return report.verdict, v.rule, v.position, v.factor


class PairReference:
    """(verdict, rule, position, factor) of the greedy (lazy: complement)
    pair check, by comparing the tail after each critical digit with its
    bound on its own, unrolled digit by digit in the value order."""

    def __init__(self, ctx, bounds):
        self.fb = ctx.floor_beta
        # -b*beta + a with 0 <= a < beta: b first (reversed), then a
        order = sorted(minimal_alphabet(ctx).greedy, key=lambda p: (-p[0], p[1]))
        self.rank = {p: i for i, p in enumerate(order)}.__getitem__
        self.top = order[-1]
        self.bounds = bounds

    def __call__(self, word, lazy=False):
        fb = self.fb
        if lazy:
            return self.reread(self(complement(word, fb)), word)
        undecided = False
        for k, d in enumerate(word.preperiod + word.period):
            if d == self.top:
                rule, bound = "top-digit", self.bounds.top.word
            elif d[0] >= 1 and d[1] == fb:
                rule, bound = "mid-digit", self.bounds.mid.word
            else:
                continue
            c = tail_compare(word, k + 1, bound, self.rank)
            if c is None:
                undecided = True
            elif c >= 0:
                return "rejected", rule, k + 1, factor_text(word, k, 4)
        if word.is_finite:
            return "prefix-ok", None, None, None
        return ("undecided" if undecided else "admissible"), None, None, None

    @staticmethod
    def reread(report, word):
        """The report with its factor read from `word` (the complement's
        report, for a lazy word)."""
        verdict, rule, k, _ = report
        return verdict, rule, k, None if rule is None else factor_text(word, k - 1, 4)


def complement(word, fb):
    return word.map_digits(lambda p: PairDigit(fb - p[0], fb - p[1]))


def golden_reference(word, phi, bounds):
    """The binary golden-ratio check: the word read two letters at a time
    must avoid the pair 0:1 and pass the greedy pair check; an odd finite
    word passes when one of its one-letter extensions does."""
    if word.is_finite and len(word) % 2:
        reports = [_golden_pairs_reference(word, DigitString.finite(word.preperiod + (d,)),
                                           phi, bounds) for d in (0, 1)]
        return next((r for r in reports if r[0] in ("admissible", "prefix-ok")), reports[0])
    return _golden_pairs_reference(word, word, phi, bounds)


def _golden_pairs_reference(word, bits, phi, bounds):
    if bits.is_finite:
        n_pre, n_per = len(bits) // 2, 0
    else:   # pair up from an even start, over a common period of 2 and the word's
        n_pre = (len(bits.preperiod) + 1) // 2
        n_per = lcm(len(bits.period), 2) // 2
    pair_at = lambda i: PairDigit(bits.digit_at(2 * i), bits.digit_at(2 * i + 1))
    pairs = DigitString([pair_at(i) for i in range(n_pre)],
                        [pair_at(n_pre + i) for i in range(n_per)])
    seq = [pair_at(i) for i in range(n_pre + n_per)]
    if PairDigit(0, 1) in seq:
        k = seq.index(PairDigit(0, 1)) + 1
        return "rejected", "forbidden-factor", 2 * k - 1, factor_text(word, 2 * k - 2, 2)
    verdict, rule, k, _ = PairReference(phi, bounds)(pairs)
    if rule is None:
        return verdict, None, None, None
    return "rejected", "forbidden-factor", 2 * k - 1, factor_text(word, 2 * k - 2, 8)


def ito_sadahiro_reference(word, low):
    """The golden-ratio Ito-Sadahiro check against d(l) = `low`: the first
    tail below d(l), or the first 0 followed by d(l), rejects."""
    for k in range(len(word.preperiod) + len(word.period)):
        c = tail_compare(word, k, low, alternate=True)
        if c == 0 and k and word.digit_at(k - 1) == 0:
            return "rejected", "forbidden-factor", k, factor_text(word, k - 1, 8)
        if c == -1:
            return "rejected", "forbidden-factor", k + 1, factor_text(word, k, 8)
    return ("admissible" if word.period else "prefix-ok"), None, None, None
