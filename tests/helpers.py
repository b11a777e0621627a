"""Shared test utilities: independent oracles and exact samplers.

The oracles here deliberately re-derive results by other routes (pure
Fraction bisection, factor scanning on unrolled words) so the library
implementations are checked against something they do not share code
with.
"""

from fractions import Fraction

from negabase import DigitString, feasible_digits


def eval_int_poly(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


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


def scan_expansion(x, depth, use_min=True):
    """The first `depth` greedy (use_min) or lazy digits of x in base -beta,
    by scanning: the smallest and the largest of feasible_digits, in turn."""
    minus_beta = -x.context.beta()
    digits = []
    for _ in range(depth):
        feasible = feasible_digits(x)
        a = min(feasible) if use_min else max(feasible)
        digits.append(a)
        x = minus_beta * x - a
        use_min = not use_min
    return DigitString.finite(digits)


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


def has_factor(word, factor):
    """Does the (finite or eventually periodic) word contain the finite factor?"""
    factor = tuple(factor)
    L = len(factor)
    if word.is_finite:
        digits = word.preperiod
        return any(digits[i:i + L] == factor for i in range(len(digits) - L + 1))
    starts = len(word.preperiod) + len(word.period)
    return any(tuple(word.digit_at(i + j) for j in range(L)) == factor
               for i in range(starts))


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
    one of the forbidden cycles)."""
    for f in factors:
        if has_factor(word, f):
            return True
    if not word.is_finite:
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
