"""Exact arithmetic in Q(beta) for a real algebraic base beta > 1.

A base is described by an integer polynomial together with a rational
isolating interval that brackets exactly one real root greater than 1.
An element is an integer vector over one positive denominator,
sum(num[i] * beta^i) / den, reduced modulo that polynomial and kept in
lowest terms, so equality, sign, floor and ceiling are all decidable
without any floating point.

Sign, floor and comparison read one integer enclosure.  The context keeps
a single isolating bracket of beta, two integers over one scale, tightened
in place by bisection in integer arithmetic, and rounds it outward to
dyadic brackets L/2^bits <= beta <= H/2^bits, one per precision asked for.
An integer interval Horner evaluation on the 64-bit bracket encloses the
value; when the enclosure excludes zero (for floor: when both its ends
have the same floor) that is the answer.  When it straddles, an
uncertified context first runs its exact zero test, then the same
enclosure is taken at 128, 256, ... bits until it decides.  A comparison
encloses the unreduced cross-multiplied numerators, so one the filter
decides builds no element; adding an integer needs no reduction.

Non-integer rational bases are admitted as degree-one contexts whose
arithmetic collapses to plain rationals.
"""

import operator
import threading
from fractions import Fraction
from functools import wraps
from math import gcd, lcm

from . import _polys as P


class FieldError(ValueError):
    """Invalid base description (bad bracket, wrong root, integer base)."""


class ContextMismatchError(ValueError):
    """Operands belong to different field contexts."""


PHI_MIN_POLY = (-1, -1, 1)            # x^2 - x - 1
TRIBONACCI_MIN_POLY = (-1, -1, -1, 1)  # x^3 - x^2 - x - 1

_FILTER_BITS = 64


def _as_fraction(v):
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"expected an exact rational, got {type(v).__name__}")


class FieldContext:
    """The base beta: minimal polynomial plus a refinable isolating bracket.

    Instances are immutable apart from the current isolating bracket, which
    only ever tightens, the dyadic brackets read off it and one table of
    counters (bisections, filter fallbacks, kernel fallbacks and ties), all
    guarded by one lock, and the per-base tables of `context_cached`, which
    are filled once per key; so a context can be shared freely between
    threads.
    """

    __slots__ = (
        "min_poly", "_modulus", "_initial_bracket", "_bracket", "_counts", "_dyadic",
        "_certified", "_lock", "_power_table", "_table_den", "_beta", "_floor_beta",
        "_tables", "__weakref__",
    )

    def __init__(self, min_poly, modulus, bracket, certified):
        self.min_poly = tuple(int(c) for c in min_poly)
        self._modulus = modulus              # monic Fraction tuple, vanishes at beta
        self._initial_bracket = bracket
        scale = lcm(bracket[0].denominator, bracket[1].denominator)
        self._bracket = (int(bracket[0] * scale), int(bracket[1] * scale), scale)   # [a/s, b/s]
        self._counts = dict.fromkeys(("bisections", "fallbacks", "kernel_fallbacks",
                                      "kernel_ties"), 0)
        self._dyadic = {}
        self._certified = certified
        self._lock = threading.Lock()
        self._tables = {}
        d = self.degree
        self._power_table, self._table_den = _reduced_powers(modulus)
        if d > 1:
            # the filter's bracket is part of set-up, not of the first sign;
            # a rational element never reaches it, so degree one needs none
            self.dyadic_bracket(_FILTER_BITS)
        # degree one: the modulus is x - rho
        self._beta = self.element(-modulus[0]) if d == 1 else self.from_coeffs([0, 1])
        fb = self._beta.floor()
        if fb < 1:
            raise FieldError("base must be greater than 1")
        self._floor_beta = fb

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FieldContext):
            return NotImplemented
        return self.min_poly == other.min_poly and self._initial_bracket == other._initial_bracket

    def __hash__(self):
        return hash((self.min_poly, self._initial_bracket))

    def __repr__(self):
        lo, hi = self._initial_bracket
        return f"FieldContext(min_poly={list(self.min_poly)}, bracket=({lo}, {hi}))"

    @property
    def degree(self):
        """Length of element coefficient vectors (degree of the modulus)."""
        return len(self._modulus) - 1

    @property
    def isolating_interval(self):
        return self._initial_bracket

    @property
    def floor_beta(self):
        return self._floor_beta

    # -- bracket refinement -------------------------------------------------

    def refinement_count(self):
        """How many isolating brackets were computed: the initial one plus
        one per bisection."""
        with self._lock:
            return self._counts["bisections"] + 1

    def fallback_count(self):
        """How many sign and floor calls the 64-bit filter left undecided."""
        with self._lock:
            return self._counts["fallbacks"]

    def kernel_fallback_count(self):
        """How many lattice steps and oracle tests took the exact path (no tie does)."""
        with self._lock:
            return self._counts["kernel_fallbacks"]

    def kernel_tie_count(self):
        """How many lattice steps and oracle tests were exact ties, not fallbacks."""
        with self._lock:
            return self._counts["kernel_ties"]

    def _count(self, name, n=1):
        with self._lock:
            self._counts[name] += n

    def dyadic_bracket(self, bits):
        """(L, H) with L/2^bits <= beta <= H/2^bits: the isolating bracket
        bisected until it is no wider than 2^-bits, then rounded outward."""
        with self._lock:
            if bits in self._dyadic:
                return self._dyadic[bits]
            a, b, scale = self._bracket
            p = P.to_integer_primitive(self._modulus)
            s_lo = P.sign_at(p, a, scale)
            while (b - a) << bits > scale:
                m = a + b   # the midpoint, over 2 * scale
                s = P.sign_at(p, m, 2 * scale)
                if s == 0:
                    a = b = m   # the midpoint is beta, which is rational
                elif s == s_lo:
                    a, b = m, 2 * b
                else:
                    a, b = 2 * a, m
                scale *= 2
                self._counts["bisections"] += 1   # the lock is held, and not reentrant
            self._bracket = a, b, scale
            pair = self._dyadic[bits] = (a << bits) // scale, -((-b << bits) // scale)
            return pair

    # -- element constructors ----------------------------------------------

    def from_coeffs(self, coeffs):
        """Element from a rational coefficient vector of any length."""
        cs = [_as_fraction(c) for c in coeffs]
        d = self.degree
        if len(cs) > d:
            rem = P.divmod_poly(tuple(cs), self._modulus)[1]
            cs = list(rem)
        cs += [Fraction(0)] * (d - len(cs))
        den = lcm(*[c.denominator for c in cs])
        return ExactReal(self, tuple(c.numerator * (den // c.denominator) for c in cs), den)

    def element(self, value):
        """The rational number `value` as an element of Q(beta)."""
        if isinstance(value, int):
            num, den = value, 1
        else:
            q = _as_fraction(value)
            num, den = q.numerator, q.denominator
        return ExactReal(self, (num,) + (0,) * (self.degree - 1), den)

    def zero(self):
        return self.element(0)

    def one(self):
        return self.element(1)

    def beta(self):
        return self._beta

    def frac_beta(self):
        """The fractional part beta - floor(beta)."""
        return self.beta() - self._floor_beta


def context_cached(fn):
    """Memoize fn(ctx, *args) on the context: each per-base table is built
    once and freed along with its context."""

    @wraps(fn)
    def cached(ctx, *args):
        key = (fn,) + args
        try:
            return ctx._tables[key]
        except KeyError:
            return ctx._tables.setdefault(key, fn(ctx, *args))

    return cached


def _x_power(k):
    return tuple(Fraction(0) for _ in range(k)) + (Fraction(1),)


def _reduced_powers(modulus):
    """Integer rows over one denominator D: beta^k = sum(row[i] * beta^i) / D
    for k in [d, 2d-2], which fold a product back below the degree d."""
    d = len(modulus) - 1
    rows = [(P.divmod_poly(_x_power(k), modulus)[1] + (Fraction(0),) * d)[:d]
            for k in range(d, 2 * d - 1)]
    den = lcm(*[c.denominator for row in rows for c in row])
    return tuple(tuple(c.numerator * (den // c.denominator) for c in row) for row in rows), den


def _rational_sign(q):
    return (q > 0) - (q < 0)


def _sum(ctx, n1, d1, n2, d2, negate):
    """n1/d1 + n2/d2 (or minus) in lowest terms.  Reduced the way
    fractions.Fraction adds: gcd(d1, d2) first, then the numerators only
    against that common factor, never against the whole denominator, whose
    size grows without bound along a rational-base orbit."""
    g = gcd(d1, d2)
    e1, e2 = d1 // g, d2 // g
    if negate:
        t = tuple(a * e2 - b * e1 for a, b in zip(n1, n2))
    else:
        t = tuple(a * e2 + b * e1 for a, b in zip(n1, n2))
    if g != 1:
        g = gcd(g, *t)
        if g != 1:
            return ExactReal(ctx, tuple(c // g for c in t), e1 * (d2 // g))
    return ExactReal(ctx, t, e1 * d2)


def _enclose(ctx, num, bits=_FILTER_BITS):
    """(a, b, s) with a <= 2^s * sum(num[i] * beta^i) <= b, by interval
    Horner evaluation in integers on the context's dyadic bracket of beta
    at `bits` bits; exact, with s = 0, when only num[0] is nonzero."""
    k = len(num) - 1
    while k and not num[k]:
        k -= 1
    a = b = num[k]
    if k:
        # a cached bracket is read without the lock or a call
        lo, hi = ctx._dyadic.get(bits) or ctx.dyadic_bracket(bits)
        shift = 0
        for c in num[k - 1::-1]:
            if a >= 0:
                a, b = a * lo, b * hi
            elif b <= 0:
                a, b = a * hi, b * lo
            else:
                a, b = a * hi, b * hi
            shift += bits
            if c:
                c <<= shift
                a += c
                b += c
    return a, b, bits * k


def _dyadic_bounds(x):
    """(lo, hi) with lo <= 2^64 * x <= hi, read off the filter's enclosure."""
    a, b, s = _enclose(x.context, x.num)
    m = x.den << s
    return (a << _FILTER_BITS) // m, -((-b << _FILTER_BITS) // m)


@context_cached
def _lattice_powers(ctx):
    """The orbit kernel's lo[i] <= 2^64 * beta^i <= lo[i] + gap, i below the
    degree: exact, with gap 0, on a degree-one (rational) context."""
    bounds = [_dyadic_bounds(ctx.from_coeffs(_x_power(i))) for i in range(ctx.degree)]
    return tuple(lo for lo, _ in bounds), max(hi - lo for lo, hi in bounds)


def _order(op):
    """The operator op(self, other) on elements, read off compare()."""
    def method(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else op(self.compare(o), 0)
    return method


class ExactReal:
    """An element of Q(beta): value = sum(num[i] * beta^i) / den, all exact.

    num is a tuple of ints, one per power of beta below the degree, and
    den a positive int with gcd(den, *num) == 1, so equal elements of a
    certified context are equal (num, den) pairs.  The constructor takes
    both as given; FieldContext.from_coeffs and element build elements
    from rationals.

    sign(), floor() and compare() decide from an integer interval Horner
    enclosure on the context's 64-bit dyadic bracket of beta, and fall back
    to the exact path (zero test, then bisection) only when it straddles.
    """

    __slots__ = ("context", "num", "den")

    def __init__(self, context, num, den):
        self.context = context
        self.num = num
        self.den = den

    @property
    def coeffs(self):
        """The rational coefficient vector, num[i] / den."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.num)

    # -- housekeeping -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ExactReal):
            if other.context is not self.context and other.context != self.context:
                raise ContextMismatchError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.context.element(other)
        return None

    def __repr__(self):
        return f"ExactReal({self.as_text()})"

    def as_text(self, var="b"):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else "-" if c == -1 else f"{c}*"
                terms.append(f"{head}{var}" + (f"^{i}" if i > 1 else ""))
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def __hash__(self):
        # equal elements of an uncertified context may differ in (num, den)
        if not self.context._certified:
            return hash(self.context)
        return hash((self.context, self.num, self.den))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.num == o.num and self.den == o.den:
            return True
        return not self.context._certified and self.compare(o) == 0

    # -- ring operations ------------------------------------------------------

    def _shift(self, k):
        # plus the integer k: gcd(den, num[0] + k * den, ...) == gcd(den, *num)
        num = self.num
        return ExactReal(self.context, (num[0] + k * self.den,) + num[1:], self.den)

    def __add__(self, other):
        if isinstance(other, int):
            return self._shift(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sum(self.context, self.num, self.den, o.num, o.den, False)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            return self._shift(-other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sum(self.context, self.num, self.den, o.num, o.den, True)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return ExactReal(self.context, tuple(-a for a in self.num), self.den)

    def _scale(self, p, q):
        # times p/q (lowest terms, q > 0), cross-cancelled as Fraction does
        g1 = gcd(p, self.den)
        g2 = gcd(q, *self.num)
        p //= g1
        return ExactReal(self.context, tuple(n // g2 * p for n in self.num),
                         self.den // g1 * (q // g2))

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scale(other, 1)
        if isinstance(other, Fraction):
            return self._scale(other.numerator, other.denominator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = self.context
        d = ctx.degree
        if d == 1:
            return self._scale(o.num[0], o.den)
        prod = [0] * (2 * d - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(o.num):
                    if b:
                        prod[i + j] += a * b
        table_den = ctx._table_den
        out = prod[:d] if table_den == 1 else [c * table_den for c in prod[:d]]
        for c, row in zip(prod[d:], ctx._power_table):
            if c:
                for i in range(d):
                    out[i] += c * row[i]
        den = self.den * o.den * table_den
        g = gcd(den, *out)
        if g != 1:
            return ExactReal(ctx, tuple(c // g for c in out), den // g)
        return ExactReal(ctx, tuple(out), den)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        result = self.context.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        ctx = self.context
        if ctx.degree == 1:
            n = self.num[0]
            return ExactReal(ctx, (self.den if n > 0 else -self.den,), abs(n))
        g = P.trim(self.coeffs)
        m = ctx._modulus
        gg, u, _ = P.xgcd_poly(g, m)
        if P.degree(gg) > 0:
            # the modulus is reducible; invert modulo the factor that
            # still vanishes at beta
            m = P.divmod_poly(m, gg)[0]
            _, u, _ = P.xgcd_poly(g, m)
        return ctx.from_coeffs(u)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            k = _as_fraction(other)
            if k == 0:
                raise ZeroDivisionError("division by zero")
            return self * (Fraction(1) / k)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    # -- decision procedures ---------------------------------------------------

    def is_zero(self):
        if not any(self.num):
            return True
        ctx = self.context
        if ctx._certified:
            return False
        g = P.gcd_poly(P.trim(self.coeffs), ctx._modulus)
        if P.degree(g) < 1:
            return False
        lo, hi = ctx.isolating_interval
        return _rational_sign(P.eval_poly(g, lo)) != _rational_sign(P.eval_poly(g, hi))

    def is_rational(self):
        return not any(self.num[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den)

    def sign(self):
        """Exact sign in {-1, 0, +1}; terminates for every element."""
        a, b, s = _enclose(self.context, self.num)
        if a > 0:
            return 1
        if b < 0:
            return -1
        if not s:
            return 0
        ctx = self.context
        ctx._count("fallbacks")
        if not ctx._certified and self.is_zero():
            return 0
        # the value is not zero, so a fine enough enclosure excludes zero
        bits = _FILTER_BITS
        while a <= 0 <= b:
            bits *= 2
            a, b, _ = _enclose(ctx, self.num, bits)
        return 1 if a > 0 else -1

    def floor(self):
        """Greatest integer <= value: the filter when both ends of its
        enclosure have one floor, else an enclosure narrower than 1 and one
        exact comparison with the top integer it can hold."""
        a, b, s = _enclose(self.context, self.num)
        m = self.den << s
        k = a // m
        if k == b // m:
            return k
        self.context._count("fallbacks")
        bits = _FILTER_BITS
        while b - a >= m:
            bits *= 2
            a, b, s = _enclose(self.context, self.num, bits)
            m = self.den << s
        k = b // m
        return k if (self - k).sign() >= 0 else k - 1

    def ceil(self):
        return -((-self).floor())

    # -- comparisons ------------------------------------------------------------

    def compare(self, other):
        """Sign of self - other.  The filter reads the unreduced numerators
        n1*d2 - n2*d1 over d1*d2 > 0; only a straddle builds the reduced
        difference and takes the exact sign() path."""
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare an element with {type(other).__name__}")
        d1, d2 = self.den, o.den
        a, b, s = _enclose(self.context, [n1 * d2 - n2 * d1 for n1, n2 in zip(self.num, o.num)])
        if a > 0:
            return 1
        if b < 0:
            return -1
        return (self - o).sign() if s else 0

    __lt__, __le__ = _order(operator.lt), _order(operator.le)
    __gt__, __ge__ = _order(operator.gt), _order(operator.ge)


def field_from_poly(coeffs, lo, hi):
    """Build a context for the single real root > 1 of the polynomial in (lo, hi).

    Coefficients are integers in ascending degree order.  The bracket must
    show a sign change and contain exactly one real root; roots that are
    at most 1 or are integers (integer bases) are rejected.
    """
    cs = []
    for c in coeffs:
        f = _as_fraction(c)
        if f.denominator != 1:
            raise FieldError("minimal polynomial must have integer coefficients")
        cs.append(f)
    p = P.trim(cs)
    if P.degree(p) < 1:
        raise FieldError("polynomial must be nonconstant")
    lo, hi = _as_fraction(lo), _as_fraction(hi)
    if not lo < hi:
        raise FieldError("empty isolating interval")
    v_lo, v_hi = P.eval_poly(p, lo), P.eval_poly(p, hi)
    if v_lo == 0 or v_hi == 0:
        raise FieldError("bracket endpoint is a root; shrink the interval")
    if _rational_sign(v_lo) == _rational_sign(v_hi):
        raise FieldError("no sign change on the isolating interval")
    chain = P.sturm_chain(p)
    n = P.sturm_root_count(chain, lo, hi)
    if n != 1:
        raise FieldError(f"isolating interval contains {n} roots, expected exactly 1")
    if hi <= 1:
        raise FieldError("bracketed root is not greater than 1")
    if lo < 1:
        if P.sturm_root_count(chain, 1, hi) != 1:
            raise FieldError("bracketed root is not greater than 1")
        lo = Fraction(1)

    # the modulus is the squarefree part without its rational roots, or
    # x - rho when beta is the rational rho; a squarefree modulus of degree
    # at most 3 with no rational root is irreducible
    modulus = P.monic(tuple(map(Fraction, chain[0])))
    for rho in P.rational_roots(chain):
        if lo < rho < hi:
            if rho.denominator == 1:
                raise FieldError(f"base {rho} is an integer; integer bases are not supported")
            modulus = (-rho, Fraction(1))
            break
        modulus = P.divmod_poly(modulus, (-rho, Fraction(1)))[0]
    return FieldContext(P.to_integer_primitive(p), modulus, (lo, hi), P.degree(modulus) <= 3)


def rational_field(value):
    """A degree-one context for a non-integer rational base > 1."""
    q = _as_fraction(value)
    if q.denominator == 1:
        raise FieldError(f"base {q} is an integer; integer bases are not supported")
    if q <= 1:
        raise FieldError("base must be greater than 1")
    fb = q.numerator // q.denominator
    return field_from_poly((-q.numerator, q.denominator), fb, fb + 1)


_PRESETS = {}
_preset_lock = threading.Lock()


def phi_field():
    """The golden ratio: root of x^2 - x - 1 in (1, 2)."""
    return _preset("phi", PHI_MIN_POLY, 1, 2)


def tribonacci_field():
    """The Tribonacci constant: root of x^3 - x^2 - x - 1 in (1, 2)."""
    return _preset("tribonacci", TRIBONACCI_MIN_POLY, 1, 2)


def _preset(name, poly, lo, hi):
    with _preset_lock:
        ctx = _PRESETS.get(name)
        if ctx is None:
            ctx = field_from_poly(poly, lo, hi)
            _PRESETS[name] = ctx
        return ctx
