"""Dense univariate polynomial helpers over exact rationals.

Polynomials are tuples of Fractions in ascending degree order,
trimmed so the leading coefficient is nonzero (the zero polynomial
is the empty tuple).  Everything here is exact; no floats.
"""

from fractions import Fraction
from math import gcd, lcm


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


def eval_poly(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def sign_at(p, n, scale):
    """Sign of the integer polynomial p at n/scale, scale > 0, in integers."""
    acc, power = 0, 1
    for c in reversed(p):
        acc = acc * n + c * power
        power *= scale
    return (acc > 0) - (acc < 0)


def _integer_multiple(p):
    """p times the positive rational that makes it integer with content 1."""
    den = lcm(*[c.denominator for c in p])
    ints = [int(c * den) for c in p]
    g = gcd(*ints)
    return tuple(c // g for c in ints)


def to_integer_primitive(p):
    """Scale a rational polynomial to integer coefficients with content 1
    and a positive leading coefficient."""
    if not p:
        return ()
    ints = _integer_multiple(p)
    return ints if ints[-1] > 0 else tuple(-c for c in ints)


def sturm_chain(p):
    """Sturm sequence of the squarefree part q of a nonconstant p: q, q',
    then negated remainders, each scaled to integers by a positive factor.
    As rem(-a, b) = -rem(a, b) = rem(-a, -b), these are the remainders of
    q and q' signed + + - - repeating; when p = q they also show the gcd."""
    while True:
        seq = [trim(p), derivative(p)]
        while seq[-1]:
            seq.append(divmod_poly(seq[-2], seq[-1])[1])
        seq.pop()
        if degree(seq[-1]) < 1:
            return tuple(_integer_multiple(q if k % 4 < 2 else neg(q)) for k, q in enumerate(seq))
        p = divmod_poly(p, seq[-1])[0]


def _variations(chain, n, scale):
    count = prev = 0
    for q in chain:
        s = sign_at(q, n, scale)
        if s:
            count += prev == -s
            prev = s
    return count


def sturm_root_count(chain, lo, hi):
    """Number of distinct real roots in the half-open (lo, hi] of the
    squarefree polynomial with Sturm sequence `chain`.  The count holds
    even when lo or hi is itself a root."""
    lo, hi = Fraction(lo), Fraction(hi)
    return (_variations(chain, lo.numerator, lo.denominator)
            - _variations(chain, hi.numerator, hi.denominator))


def rational_roots(chain):
    """Every rational root, ascending, of the squarefree polynomial p =
    chain[0] with Sturm sequence `chain`.

    A rational root of p has a denominator dividing L, the leading
    coefficient of p, and two fractions with denominators at most L lie at
    least 1/L^2 apart.  So bisection isolates each real root in a dyadic
    (lo, hi] narrower than 1/L^2, and the one fraction with denominator at
    most L nearest its midpoint is the only candidate to test, if it lies
    in (lo, hi].
    """
    p = chain[0]
    lead = abs(p[-1])
    # Cauchy's bound: every root lies in (-top, top]
    top = 1 << (1 + -(-max(map(abs, p[:-1])) // lead)).bit_length()
    roots = []
    # (a, V(a), b, V(b), s): the interval (a/s, b/s] and its variation counts
    todo = [(-top, _variations(chain, -top, 1), top, _variations(chain, top, 1), 1)]
    while todo:
        a, va, b, vb, s = todo.pop()
        if va == vb:
            continue
        if va - vb == 1 and (b - a) * lead * lead < s:
            x = Fraction(a + b, 2 * s).limit_denominator(lead)
            n, d = x.numerator, x.denominator
            if a * d < n * s <= b * d and sign_at(p, n, d) == 0:
                roots.append(x)
            continue
        m, s = a + b, 2 * s
        vm = _variations(chain, m, s)
        todo += [(m, vm, 2 * b, vb, s), (2 * a, va, m, vm, s)]
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
