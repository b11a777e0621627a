"""Independent checks for the benchmark: exact Q(beta) arithmetic, the
paper's forbidden strings, and the extremality of greedy and lazy digits.

Nothing here imports `negabase`.  Elements of Q(beta) are integer
coefficient vectors over one common positive denominator, reduced modulo
the minimal polynomial; signs come from interval Horner evaluation over a
dyadic bracket of the root that is bisected until the sign is certain.
The bases used by the benchmark have irreducible minimal polynomials, so
an element is zero exactly when all its coefficients are zero.
"""

from fractions import Fraction
from math import gcd, lcm

_BISECTION_CAP = 4000


class Field:
    """Q(beta) for the real root of an irreducible integer polynomial
    (ascending coefficients) that lies in the rational bracket (lo, hi)."""

    def __init__(self, poly, lo, hi):
        poly = tuple(int(c) for c in poly)
        if poly[-1] < 0:
            poly = tuple(-c for c in poly)
        self.poly = poly
        self.degree = len(poly) - 1
        lo, hi = Fraction(lo), Fraction(hi)
        self._levels = []
        if self.degree == 1:
            self.root = Fraction(-poly[0], poly[1])
            if not lo < self.root < hi:
                raise ValueError("bracket misses the root")
            self.floor_beta = _floor(self.root)
            return
        if poly[-1] != 1:
            raise ValueError("non-rational bases need a monic polynomial")
        self.root = None
        # dyadic brackets: level i holds (L, H, s) with L/2^s < beta < H/2^s
        s = 2
        while (hi - lo) * 2 ** s < 4:
            s += 1
        L, H = _floor(lo * 2 ** s), -_floor(-hi * 2 ** s)
        s_lo = _poly_sign_at(poly, Fraction(L, 2 ** s))
        s_hi = _poly_sign_at(poly, Fraction(H, 2 ** s))
        if s_lo == 0 or s_hi == 0 or s_lo == s_hi:
            raise ValueError("bracket does not isolate a sign change")
        self._sign_at_lo = s_lo
        self._levels.append((L, H, s))
        self.floor_beta = self._floor_beta()

    # -- elements: (nums, den) with gcd(nums, den) = 1 and den > 0 ----------

    def elem(self, nums, den=1):
        d = self.degree
        nums = [int(c) for c in nums]
        if d == 1:
            # beta = p/q: fold every power into the constant term
            q = Fraction(0)
            for c in reversed(nums):
                q = q * self.root + c
            return _norm([q.numerator], q.denominator * den)
        nums = self._reduce(nums)
        return _norm(nums, den)

    def const(self, q):
        q = Fraction(q)
        return self.elem([q.numerator], q.denominator)

    def from_fractions(self, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        den = lcm(*[c.denominator for c in coeffs]) if coeffs else 1
        return self.elem([c.numerator * (den // c.denominator) for c in coeffs], den)

    def to_fractions(self, e):
        nums, den = e
        return [Fraction(c, den) for c in nums]

    def beta(self):
        return self.elem([0, 1])

    def _reduce(self, nums):
        d = self.degree
        poly = self.poly
        nums = list(nums)
        for i in range(len(nums) - 1, d - 1, -1):
            c = nums[i]
            if c:
                for j in range(d):
                    nums[i - d + j] -= c * poly[j]
        nums = nums[:d]
        return nums + [0] * (d - len(nums))

    def add(self, x, y):
        (a, da), (b, db) = x, y
        if da == db:
            return _norm([p + q for p, q in zip(a, b)], da)
        return _norm([p * db + q * da for p, q in zip(a, b)], da * db)

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def neg(self, x):
        return ([-c for c in x[0]], x[1])

    def mul(self, x, y):
        (a, da), (b, db) = x, y
        if self.degree == 1:
            return _norm([a[0] * b[0]], da * db)
        out = [0] * (len(a) + len(b) - 1)
        for i, p in enumerate(a):
            if p:
                for j, q in enumerate(b):
                    out[i + j] += p * q
        return _norm(self._reduce(out), da * db)

    def mul_int(self, x, k):
        return _norm([c * k for c in x[0]], x[1])

    def power(self, x, n):
        out = self.const(1)
        for _ in range(n):
            out = self.mul(out, x)
        return out

    def inverse(self, x):
        """Inverse by solving the linear system of multiplication by x."""
        d = self.degree
        if d == 1:
            q = Fraction(x[0][0], x[1])
            return self.const(1 / q)
        cols = []
        e = self.const(1)
        for _ in range(d):
            cols.append(self.to_fractions(self.mul(x, e)))
            e = self.mul(e, self.beta())
        # rows of [M | 1]: M[i][j] = coefficient i of x * beta^j
        m = [[cols[j][i] for j in range(d)] + [Fraction(int(i == 0))] for i in range(d)]
        for col in range(d):
            piv = next(r for r in range(col, d) if m[r][col] != 0)
            m[col], m[piv] = m[piv], m[col]
            pv = m[col][col]
            m[col] = [v / pv for v in m[col]]
            for r in range(d):
                if r != col and m[r][col] != 0:
                    f = m[r][col]
                    m[r] = [v - f * w for v, w in zip(m[r], m[col])]
        return self.from_fractions([m[i][d] for i in range(d)])

    # -- order --------------------------------------------------------------

    def sign(self, x):
        nums = x[0]
        k = len(nums) - 1
        while k >= 0 and not nums[k]:
            k -= 1
        if k < 0:
            return 0
        if k == 0:
            return (nums[0] > 0) - (nums[0] < 0)
        p = nums[:k + 1]
        for level in range(_BISECTION_CAP):
            L, H, s = self._bracket(level)
            a, b = _interval_horner(p, L, H, s)
            if a > 0:
                return 1
            if b < 0:
                return -1
        raise ArithmeticError("bisection did not separate a nonzero element from 0")

    def cmp(self, x, y):
        return self.sign(self.sub(x, y))

    def _bracket(self, level):
        levels = self._levels
        while len(levels) <= level:
            L, H, s = levels[-1]
            L, H, s = 2 * L, 2 * H, s + 1
            mid = (L + H) // 2
            v = _poly_sign_at(self.poly, Fraction(mid, 2 ** s))
            if v == 0:
                raise ArithmeticError("minimal polynomial is reducible")
            L, H = (mid, H) if v == self._sign_at_lo else (L, mid)
            levels.append((L, H, s))
        return levels[level]

    def _floor_beta(self):
        k = 1
        while self.sign(self.sub(self.beta(), self.const(k + 1))) > 0:
            k += 1
        return k

    def key(self, x):
        return (tuple(x[0]), x[1])


def _floor(q):
    q = Fraction(q)
    return q.numerator // q.denominator


def _norm(nums, den):
    if den < 0:
        nums, den = [-c for c in nums], -den
    g = den
    for c in nums:
        if g == 1:
            break
        g = gcd(g, c)
    if g > 1:
        nums, den = [c // g for c in nums], den // g
    return (nums, den)


def _poly_sign_at(poly, x):
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * x + c
    return (acc > 0) - (acc < 0)


def _interval_horner(p, L, H, s):
    """Enclosure [a, b] of 2^(s*deg) * p(t) over t in [L/2^s, H/2^s]."""
    n = len(p) - 1
    a = b = p[n]
    scale = 1
    for i in range(n - 1, -1, -1):
        scale <<= s
        cands = (a * L, a * H, b * L, b * H)
        c = p[i] * scale
        a, b = min(cands) + c, max(cands) + c
    return a, b


# -- the representable interval and the digit maps -----------------------------


class Base:
    """A field plus the interval I = [l, r] of numbers representable in
    base -beta with digits 0..floor(beta), and the Ito-Sadahiro domain."""

    def __init__(self, name, field):
        self.name = name
        self.f = field
        F = field
        b = F.beta()
        fb = F.floor_beta
        self.fb = fb
        self.minus_beta = F.neg(b)
        self.beta2 = F.mul(b, b)
        # x in I  <=>  -beta*fb <= (beta^2 - 1) x <= fb, as beta^2 - 1 > 0
        self._scale_I = F.sub(self.beta2, F.const(1))
        self._lo_I = F.mul_int(b, -fb)
        self._hi_I = F.const(fb)
        # x in the Ito-Sadahiro domain  <=>  -beta <= (beta + 1) x < 1
        self._scale_IS = F.add(b, F.const(1))
        inv = F.inverse(self._scale_I)
        self.l = F.mul(self._lo_I, inv)
        self.r = F.mul(self._hi_I, inv)
        self.digit_elems = [F.const(a) for a in range(fb + 1)]

    def in_I(self, x):
        F = self.f
        y = F.mul(self._scale_I, x)
        return F.cmp(y, self._lo_I) >= 0 and F.cmp(self._hi_I, y) >= 0

    def in_IS(self, x):
        F = self.f
        y = F.mul(self._scale_IS, x)
        return F.cmp(y, F.neg(F.beta())) >= 0 and F.cmp(F.const(1), y) > 0

    def ito_sadahiro_bounds(self):
        """d(l) and d*(r) for the Ito-Sadahiro criterion."""
        if not hasattr(self, "_is_bounds"):
            F = self.f
            l = F.mul(F.neg(F.beta()), F.inverse(self._scale_IS))
            low = self.ito_sadahiro(l)
            pre, per = low
            if not pre and len(per) % 2 == 1:
                high = canonical((), (0,) + per[:-1] + (per[-1] - 1,))
            else:
                high = canonical((0,) + pre, per)
            self._is_bounds = (low, high)
        return self._is_bounds

    def pair_value(self, p):
        F = self.f
        return F.add(F.mul_int(F.beta(), -p[0]), F.const(p[1]))

    def feasible(self, y):
        """Digits a with -beta*y - a in I, with the remainders."""
        F = self.f
        z = F.mul(self.minus_beta, y)
        out = []
        for a in range(self.fb + 1):
            w = F.sub(z, self.digit_elems[a])
            if self.in_I(w):
                out.append((a, w))
        return out

    def alternating(self, x, greedy, depth=None, budget=20000):
        """Greedy (alternate-order maximal) or lazy digits of x: the
        smallest feasible digit on odd positions and the largest on even
        ones for greedy, the other way round for lazy."""
        F = self.f
        digits, y = [], x
        use_min = greedy
        seen = {(use_min, F.key(y)): 0}
        for _ in range(budget if depth is None else depth):
            opts = self.feasible(y)
            a, y = opts[0] if use_min else opts[-1]
            digits.append(a)
            use_min = not use_min
            if depth is None:
                k = (use_min, F.key(y))
                if k in seen:
                    i = seen[k]
                    return canonical(digits[:i], digits[i:])
                seen[k] = len(digits)
        if depth is None:
            raise ArithmeticError("orbit did not close within the budget")
        return tuple(digits), ()

    def ito_sadahiro(self, x, budget=20000):
        """Ito-Sadahiro digits D(y) = floor(-beta*y + beta/(beta+1)),
        period-detected; x must lie in the domain."""
        F = self.f
        digits, y = [], x
        seen = {F.key(y): 0}
        b = F.beta()
        for _ in range(budget):
            # (beta+1)(-beta*y) + beta >= k (beta+1)  <=>  digit >= k
            z = F.mul(self.minus_beta, y)
            t = F.add(F.mul(self._scale_IS, z), b)
            k = self.fb
            while k > 0 and F.cmp(t, F.mul_int(self._scale_IS, k)) < 0:
                k -= 1
            digits.append(k)
            y = F.sub(z, self.digit_elems[k])
            y_key = F.key(y)
            if y_key in seen:
                i = seen[y_key]
                return canonical(digits[:i], digits[i:])
            seen[y_key] = len(digits)
        raise ArithmeticError("orbit did not close within the budget")

    def prefixes(self, x, depth):
        """Every extendable length-`depth` prefix of x (brute force)."""
        level = [((), x)]
        for _ in range(depth):
            nxt = []
            for pre, y in level:
                for a, w in self.feasible(y):
                    nxt.append((pre + (a,), w))
            level = nxt
        return [p for p, _ in level]

    # -- evaluation without inverses ----------------------------------------

    def represents(self, x, pre, per, base, value):
        """Does the eventually periodic word pre(per) in `base` (with digit
        values value(d)) have the value x?  Runs y <- base*y - value(d)
        over the preperiod, then checks y * (base^q - 1) equals the
        period's integer part."""
        F = self.f
        y = x
        for d in pre:
            y = F.sub(F.mul(base, y), value(d))
        if not per:
            return F.sign(y) == 0
        acc = F.const(0)
        for d in per:
            acc = F.add(F.mul(acc, base), value(d))
        bq = F.power(base, len(per))
        lhs = F.mul(y, F.sub(bq, F.const(1)))
        return F.cmp(lhs, acc) == 0

    def value(self, pre, per, base, value):
        """Exact value of pre(per) in `base`."""
        F = self.f
        binv = F.inverse(base)
        tail = F.const(0)
        if per:
            acc = F.const(0)
            for d in per:
                acc = F.add(F.mul(acc, base), value(d))
            tail = F.mul(acc, F.inverse(F.sub(F.power(base, len(per)), F.const(1))))
        total = tail
        for d in reversed(pre):
            total = F.mul(F.add(total, value(d)), binv)
        return total

    def neg_digit_value(self, d):
        return self.digit_elems[d]


# -- words -----------------------------------------------------------------------


def canonical(pre, per):
    """Shortest preperiod and primitive period of the word pre(per)."""
    pre, per = tuple(pre), tuple(per)
    if per:
        n = len(per)
        for d in range(1, n + 1):
            if n % d == 0 and per[:d] * (n // d) == per:
                per = per[:d]
                break
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = (per[-1],) + per[:-1]
    return pre, per


def digit_at(pre, per, i):
    if i < len(pre):
        return pre[i]
    return per[(i - len(pre)) % len(per)]


def alt_cmp(u, v, key=None):
    """Alternate order on eventually periodic words (pre, per): the digit
    at 1-based position k counts with sign (-1)^k."""
    (up, uq), (vp, vq) = u, v
    if not uq or not vq:
        n = len(up)
        if uq or vq or n != len(vp):
            raise ValueError("compare two finite words of one length or two infinite words")
        horizon = n
    else:
        horizon = len(up) + len(vp) + lcm(len(uq), len(vq))
    for i in range(horizon):
        a = digit_at(up, uq, i) if uq else up[i]
        b = digit_at(vp, vq, i) if vq else vp[i]
        if a != b:
            ka, kb = (key(a), key(b)) if key else (a, b)
            less = ka < kb
            if i % 2 == 0:
                less = not less
            return -1 if less else 1
    return 0


def psi(pre, per):
    """The pair morphism: each pair digit (b, a) becomes the letters b, a."""
    flat = lambda part: tuple(x for p in part for x in p)
    return canonical(flat(pre), flat(per))


def pair_up(pre, per):
    """Inverse of psi on an eventually periodic word of letters."""
    pre, per = list(pre), list(per)
    if len(pre) % 2:
        pre.append(per[0])
        per = per[1:] + per[:1]
    if len(per) % 2:
        per = per + per
    grp = lambda s: tuple((s[i], s[i + 1]) for i in range(0, len(s), 2))
    return canonical(grp(pre), grp(per))


def has_factor(pre, per, factor):
    """Does the finite or eventually periodic word contain the factor?"""
    n = len(factor)
    if per:
        reps = -(-(n - 1) // len(per)) + 1
        pre = tuple(pre) + tuple(per) * reps
        pre = pre[:len(pre) - len(per) * reps + len(per) + n - 1]
    factor = tuple(factor)
    first = factor[0]
    return any(pre[i] == first and pre[i:i + n] == factor for i in range(len(pre) - n + 1))


def is_rotation(per, cycle):
    if len(per) != len(cycle):
        return False
    doubled = tuple(cycle) * 2
    return any(doubled[i:i + len(cycle)] == tuple(per) for i in range(len(cycle)))


# -- the paper's forbidden strings for the squared-base greedy expansions --------

A, B, C, D = (1, 0), (1, 1), (0, 0), (0, 1)

FORBIDDEN = {
    # phi: the factor 1:1.0:0 and the cycles (1:1) and (0:0)
    "phi": ((A, B, C), [(B, C)], [(B,), (C,)]),
    # Tribonacci: the factors 1:1.0:1, 0:1.0:0, 0:1.0:1 and the cycle (1:1.0:0.0:1)
    "tribonacci": ((A, B, C, D), [(B, D), (D, C), (D, D)], [(B, C, D)]),
}


def greedy_law(base_name, pre, per):
    """True when the eventually periodic pair word is a greedy squared-base
    expansion by the paper's forbidden-string characterization."""
    alphabet, factors, cycles = FORBIDDEN[base_name]
    pre, per = canonical(pre, per)
    if any(p not in alphabet for p in pre + per):
        return False
    if any(has_factor(pre, per, f) for f in factors):
        return False
    return not any(is_rotation(per, c) for c in cycles)


def complement_pairs(pre, per, fb):
    f = lambda part: tuple((fb - b, fb - a) for b, a in part)
    return f(pre), f(per)


def golden_binary_law(pre, per):
    """Binary golden-ratio word: admissible when its pairs are a greedy
    pair word for phi."""
    return greedy_law("phi", *pair_up(pre, per))


def ito_sadahiro_law(base, pre, per):
    """Ito and Sadahiro's criterion: every shift s of the word satisfies
    d(l) <= s < d*(r) in the alternate order, where d(l) is the expansion
    of the left end l = -beta/(beta+1) of the domain and d*(r) the limit
    expansion at its right end."""
    low, high = base.ito_sadahiro_bounds()
    pre, per = canonical(pre, per)
    shifts = [(pre[n:], per) for n in range(len(pre))]
    shifts += [canonical((), per[j:] + per[:j]) for j in range(len(per))]
    return all(alt_cmp(low, w) <= 0 and alt_cmp(w, high) < 0 for w in shifts)


# -- word text -------------------------------------------------------------------


def parse_word(text, pair=False):
    """Parse `pre(per)` (digits, comma digits, or dot-separated b:a pairs)."""
    text = text.strip()
    if "(" in text:
        head, body = text.split("(", 1)
        body = body.rstrip(")")
    else:
        head, body = text, ""

    def run(s):
        s = s.strip().strip(".,")
        if not s:
            return ()
        if pair:
            return tuple(tuple(int(v) for v in tok.split(":")) for tok in s.split("."))
        toks = s.split(",") if "," in s else list(s)
        return tuple(int(t) for t in toks)

    return run(head), run(body)
