"""Dense univariate polynomial helpers over exact rationals.

Polynomials are tuples of Fractions in ascending degree order,
trimmed so the leading coefficient is nonzero (the zero polynomial
is the empty tuple).  Everything here is exact; no floats.
"""

from fractions import Fraction
from math import isqrt

# rational_roots enumerates divisors only of end coefficients up to this size
_ROOT_SIZE_LIMIT = 10**12


def trim(coeffs):
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p):
    return len(p) - 1


def add(p, q):
    n = max(len(p), len(q))
    return trim((p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n))


def neg(p):
    return tuple(-c for c in p)


def sub(p, q):
    return add(p, neg(q))


def scale(p, k):
    if k == 0:
        return ()
    return tuple(c * k for c in p)


def mul(p, q):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return trim(out)


def monic(p):
    if not p:
        return p
    lead = p[-1]
    return tuple(c / lead for c in p)


def divmod_poly(p, q):
    """Quotient and remainder of p by a nonzero q, over the rationals."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    dq = len(q) - 1
    lead = q[-1]
    quo = [Fraction(0)] * max(len(p) - dq, 0)
    for i in range(len(rem) - 1, dq - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        f = c / lead
        quo[i - dq] = f
        for j in range(dq + 1):
            rem[i - dq + j] -= f * q[j]
    return trim(quo), trim(rem)


def derivative(p):
    return trim(i * c for i, c in enumerate(p) if i > 0)


def gcd_poly(p, q):
    """Monic greatest common divisor."""
    a, b = trim(p), trim(q)
    while b:
        a, b = b, divmod_poly(a, b)[1]
    return monic(a)


def squarefree_part(p):
    g = gcd_poly(p, derivative(p))
    if degree(g) < 1:
        return monic(p)
    return monic(divmod_poly(p, g)[0])


def eval_poly(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _sign_variations(values):
    count = 0
    prev = 0
    for v in values:
        s = (v > 0) - (v < 0)
        if s == 0:
            continue
        if prev != 0 and s != prev:
            count += 1
        prev = s
    return count


def sturm_root_count(p, lo, hi):
    """Number of distinct real roots of squarefree p in (lo, hi].

    Assumes p(lo) != 0; with p(hi) != 0 the endpoint question vanishes
    and the count is for the open interval as well.
    """
    chain = [trim(p), derivative(p)]
    while chain[-1]:
        rem = divmod_poly(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(neg(rem))
    at_lo = [eval_poly(q, lo) for q in chain]
    at_hi = [eval_poly(q, hi) for q in chain]
    return _sign_variations(at_lo) - _sign_variations(at_hi)


def to_integer_primitive(p):
    """Scale a rational polynomial to integer coefficients with content 1."""
    if not p:
        return ()
    from math import gcd, lcm

    den = lcm(*[c.denominator for c in p]) if len(p) > 1 else p[0].denominator
    ints = [int(c * den) for c in p]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    if g > 1:
        ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def _divisors(n):
    n = abs(n)
    out = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return out


def rational_roots(p):
    """All rational roots of an integer-coefficient polynomial.

    Returns None when the constant or leading coefficient is too large
    for divisor enumeration; callers must then cope without the list.
    """
    p = trim(Fraction(c) for c in p)
    if not p:
        raise ValueError("zero polynomial has every root")
    ints = to_integer_primitive(p)
    roots = []
    # strip powers of x
    k = 0
    while ints[k] == 0:
        k += 1
    if k:
        roots.append(Fraction(0))
        ints = ints[k:]
    if len(ints) == 1:
        return roots
    c0, cn = ints[0], ints[-1]
    if abs(c0) > _ROOT_SIZE_LIMIT or abs(cn) > _ROOT_SIZE_LIMIT:
        return None
    for num in _divisors(c0):
        for den in _divisors(cn):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if cand not in roots and eval_poly(ints, cand) == 0:
                    roots.append(cand)
    return roots


def xgcd_poly(p, q):
    """Extended gcd: returns (g, u, v) monic with u*p + v*q = g."""
    a, b = trim(p), trim(q)
    ua, va = (Fraction(1),), ()
    ub, vb = (), (Fraction(1),)
    while b:
        quo, rem = divmod_poly(a, b)
        a, b = b, rem
        ua, ub = ub, sub(ua, mul(quo, ub))
        va, vb = vb, sub(va, mul(quo, vb))
    if not a:
        return (), (), ()
    lead = a[-1]
    inv = 1 / lead
    return scale(a, inv), scale(ua, inv), scale(va, inv)
