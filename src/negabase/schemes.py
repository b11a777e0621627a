"""Digit maps and transformations for negative-base expansions.

Covers the representable interval I and its digit subintervals, the two
one-step digit choices (smallest and largest feasible digit, the first
place of the alternating descent that the oracle's extremal prefixes
iterate, on the walk's digit test as feasible_digits is), the
squared-base schemes over the pair-digit alphabet, whose pair digits read
two letters each are the greedy and lazy digits in base -beta (the
paper's theorem), the Ito-Sadahiro scheme, a minimal positive-base scheme,
and exact evaluation of eventually periodic digit strings.  Every scheme
is one tiling of its domain by one preimage rule: each cell ends where its
map x -> base*x - v reaches a chosen end of the domain, at (v + end)/base,
and holds that point exactly when the domain holds the end.  The same
preimages are the beta^2 breakpoints and the ends of the digit subintervals.

Infinite expansions are produced in period-detection mode: the exact
orbit of remainders is hashed and the first repeat closes the period.
Orbits of points with large denominators need not repeat within the
budget; those come back as finite prefixes with an explicit status.
Every expansion reads its orbit once: _orbit gives the digits and where
the period starts, and _expansion builds the one DigitString.  Greedy and
lazy flatten the squared-base pair digits into letters there.  Where a
state's value fixes its key and the digits after a state fix its value (a
certified context, |base| > 1 and a digit per cell, as every scheme built
here has), the first repeat gives the shortest preperiod and period in steps,
and the word is taken as it stands, testing only the two ways a word of two
letters per step can be shorter; elsewhere the general constructor runs.

Every orbit and the oracle's walk run on one integer kernel, on every
base: y = v/D with v an integer vector, the base times a common
denominator L an integer matrix, and each cut n/d or end of I tested by
64-bit bounds of one dot product, then a tie d*v = D*n where they straddle
(kernel_tie_count()), then the exact test (kernel_fallback_count()).  On an
algebraic-integer base L = 1 and D stays den(x); elsewhere an orbit state
is y in lowest terms.  Either way a value has one state.  An orbit is one
call of a loop that runs that kernel written out for the degree d of the
base, every dot product an unrolled sum of d terms, and detects the period
itself, one setdefault per step keyed by v (L = 1) or (v, D).  The loop is
compiled once per process for each degree and flag L != 1: every scheme of
every base with that degree and flag runs one code object, its constants
bound by name per scheme.  Before it, x is tested against the domain by its
64-bit bounds and those of the domain's ends; only where they straddle an
end does the exact test run.  As greedy and lazy read two steps of -beta
off one step of beta^2, the loop reads two steps of any scheme off one
search of the scheme's square (Scheme._square): the cells of the map
applied twice, each the pair of cells of its two steps, cut at 64-bit
bounds that follow from the validated cuts.  The step after a search takes
the second cell of the pair with no search, and every state is keyed, so a
period closes at the step where its state repeats.  Every search is a
bisection over monotone bounds, one per two steps; where the bounds
straddle a cut of the square, that step searches its own cell over the
single cuts, which Scheme.validate proves increasing.  A square past
_SQUARE_CELLS cells is the single cuts, searched at each step.  With L = 1
the loop holds the powers of beta and the cell offsets scaled for den(x),
and a scheme keeps the loop of its last denominator.  The oracle's walk
and its alternating descent are compiled once per degree too, each one
loop over all its levels or places, a node's digits read off two floor
divisions; each counts its ties in a local and enters through one guard
(_walked), which adds them to the context once.
"""

from bisect import bisect_left, bisect_right
from functools import cached_property, partial
from itertools import accumulate, chain, pairwise, product, repeat
from math import gcd, lcm
from operator import mul

from .field import _FILTER_BITS, ExactReal, _dyadic_bounds, _lattice_powers, context_cached
from .words import DigitString, _dataclass_fields, _letters, _pair_digit, _Record, _set

DEFAULT_ORBIT_BUDGET = 10_000
# the most cells of a scheme's square (Scheme._square): on CPython 3.11 on a
# 2-core Xeon a cell costs 0.4-0.8 us to build, and the square saves
# 0.15-0.29 us a pair step over the single cuts (L = 1), so one orbit of the
# default budget, 5 000 pair steps, pays for 1 000-3 600 cells, about 2 000
# at the medians (0.5 and 0.21 us)
_SQUARE_CELLS = 1 << 11

STATUS_OK = "ok"
STATUS_PERIOD_NOT_FOUND = "period-not-found"


class DomainError(ValueError):
    """Input outside the domain interval of the operation."""


class Interval(_Record):
    """Interval with exact endpoints and explicit endpoint membership."""

    __slots__ = _fields = ("lo", "hi", "lo_closed", "hi_closed")
    _defaults = {"lo_closed": True, "hi_closed": True}

    def contains(self, x):
        s = x.compare(self.lo)
        if s < 0 or (s == 0 and not self.lo_closed):
            return False
        s = self.hi.compare(x)
        return s > 0 or (s == 0 and self.hi_closed)

    def __str__(self):
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo.as_text()}, {self.hi.as_text()}{right}"


def _subset(inner, outer):
    s = inner.lo.compare(outer.lo)
    if s < 0 or (s == 0 and inner.lo_closed and not outer.lo_closed):
        return False
    s = outer.hi.compare(inner.hi)
    return s > 0 or (s == 0 and (outer.hi_closed or not inner.hi_closed))


@context_cached
def interval_I(ctx):
    """The interval of representable numbers [l, r] for base -beta."""
    beta = ctx.beta()
    fb = ctx.floor_beta
    inv = (beta * beta - 1).inverse()
    l = -(beta * fb) * inv
    r = ctx.element(fb) * inv
    return Interval(l, r, True, True)


def digit_subinterval(ctx, a):
    """I_a: the numbers whose representation can start with digit a."""
    if not 0 <= a <= ctx.floor_beta:
        raise ValueError(f"digit {a} outside the alphabet")
    I, base, v = interval_I(ctx), -ctx.beta(), ctx.element(a)
    return Interval(_preimage(base, v, I.hi), _preimage(base, v, I.lo), True, True)


def _lowest(ctx, v, D):
    """The element v/D in lowest terms."""
    g = gcd(D, *v)
    return ExactReal(ctx, tuple(c // g for c in v), D // g)


def _reduced(ctx, v, D):
    """The kernel's exact path, past bounds and ties: counted, v/D in lowest terms."""
    ctx._count("kernel_fallbacks")
    return _lowest(ctx, v, D)


_ORBIT_SOURCE = """\
def make(offsets, D):
    {o}, = map(offsets.__getitem__, columns)   # each coordinate's offsets, cell by cell
{powers}    def orbit(v, D, n, detect):
        {v}, = v
        out = []
        seen = {{{key}: 0}}
        b = None   # the cell of the next step, from the last search of the square
        for m in range(1, n + 1):
            if b is None:
                t = {t}   # y at the scale of the cut bounds, up to e
                e = gap * ({e})   # each |v_c| inline, cheaper than a call of abs
                # i counts the square's cuts that may be below y; the bounds straddle
                # the last if it may be above y too, and then this step's cell is
                # searched alone and the next step searches the square again
                i = bisect_right(lo, {upper})
                if i and {straddle}:
                    a = cell(({v},), D)
                else:
                    a, b = firsts[i], seconds[i]
            else:
                a, b = b, None
            {v}, = {rows},
{lowest}
            out.append(digits[a])
            if detect:
                s = seen.setdefault({key}, m)
                if s != m:
                    return out, s, (({v},), D)
        return out, None, (({v},), D)
    return orbit
"""

# by the flag L != 1: with L = 1, D stays den(x), make's powers are
# floor(2^128*beta^c/D) from the names q_c = 2^64*p_c, each within
# 1 + ceil(2^64*gap/D) of 2^128*beta^c/D, its offsets come scaled by D, the cut
# bounds are 2^128 times the cuts, and a state is keyed by v alone; else D
# grows, t is 2^64*D*y by the names p_c and gap and is divided by D, as for an
# integer h, h <= floor((t+e)/D) iff h*D <= t+e, the offsets are multiplied by
# D, and the key holds it
_ORBIT_SEARCH = (dict(upper="t + e", straddle="hi[i - 1] >= t - e", offset=""),
                 dict(upper="(t + e) // D", straddle="hi[i - 1] * D >= t - e", offset=" * D"))

_ORBIT_LOWEST = """\
            D *= L   # lowest terms: a common factor of v and D*L divides k
            g = gcd(gcd(k, D), {v})
            if g != 1:
                {v}, D = {v_g}, D // g"""

_WALK_NODE = """\
{z}
            t = {t}   # 2^64 * E * (-beta*y), up to e
            e = gap * ({e})
            lo, hi = t - e, t + e
            i, j = -((r_hi - lo) // unit), (hi - l_lo) // unit
            for a in range(i if i > 0 else 0, (j if j < fb else fb) + 1):
                w0, s = z0 - a * E, a * unit
                if ((hi - s <= r_lo or {tie_r}) if lo - s >= l_hi else {tie_l}) \\
                        or contains(reduced(ctx, (w0{w},), E)):"""

_WALK_SCALE = """\
            E = D * M
            if E != E0:   # l's and r's bounds and the digit 1 at E's scale, once per new E
                E0, l_lo, l_hi, r_lo, r_hi, unit = E, E * ll, E * lh, E * rl, E * rh, E << bits"""

_WALK_SOURCE = """\
def make():
    def walk(v, D, depth, budget, levels):
        level, E0, nodes, ties = {{v: 1}}, 0, 0, 0
        for _ in range(depth):
{scale}
            nxt, edges = {{}}, []
            if levels is not None:
                levels.append(edges)
            for v, n in level.items():
                {v}, = v
                m = 1 if levels is None else n   # a listed node counts its prefixes
{walk_node}
                        w = (w0{w},)
                        nxt[w] = nxt.get(w, 0) + n
                        nodes += m
                        if levels is not None:
                            edges.append((v, a, w))
                if nodes > budget:
                    return None, ties
            if not nxt:   # only the first level: x is outside I
                return nxt, ties
            level, D = nxt, E
        return level, ties

    def descend(v, D, depth, k):
        {v}, = v
        E0, ties, out = 0, 0, []
        for _ in range(depth):
{scale}
            b = None
{node}
                    if b is None or k:   # k = 0 keeps the first feasible digit, -1 the last
                        b, u = a, w0
            if b is None:   # only the first place: x is outside I
                return (), ties
            out.append(b)
            {v}, D, k = u{w}, E, ~k
        return (out, (({v},), D)), ties
    return walk, descend
"""

_KERNEL_CODES = {}


def _compiled(write, ctx, names, *flags):
    """The make of write(d, *flags), compiled once per process for each writer,
    degree d of ctx and flags, run in names and the 64-bit powers p_c of beta
    and their gap: the source is fixed text and d, every constant a name."""
    key = write.__name__, ctx.degree, *flags
    code = _KERNEL_CODES.get(key) or _KERNEL_CODES.setdefault(
        key, compile(write(*key[1:]), f"<{key[0]}>", "exec"))
    powers, names["gap"] = _lattice_powers(ctx)
    names.update((f"p{c}", p) for c, p in enumerate(powers))
    exec(code, names)
    return names["make"]


def _kernel_code(degree, reduce):
    """The orbit loop of every scheme of a degree and flag: make(offsets, D)
    -> orbit(v, D, n, detect) -> (digits, start, state).  Each of up to n
    steps is the kernel written out for the degree d on the locals
    v_0..v_(d-1), D, two steps to a search: one dot product and one
    bisection of the bounds of the square's cuts (Scheme._square) give the
    cells a and b of this step and the next, and the next step takes b with
    no search.  Where the bounds straddle a cut of the square, Scheme._cell
    searches this step's cell alone and the next step searches the square
    again; a square past _SQUARE_CELLS is the single cuts with no b, searched
    at each step.  With detect, one setdefault per step keys each state, so
    the first repeat returns at the step where it occurs, with where the
    period starts, else start is None after n steps.  The last state (v, D)
    comes back too, so orbit(v, D, 1, False) is one step.  reduce (L != 1)
    divides by the growing D and puts each state in lowest terms, keyed
    (v, D); else make divides the powers of beta by D and the cell offsets
    come scaled by it (Scheme._stepper), and the key is v.  Its other names
    (m_r_c, digits, lo, hi, firsts, seconds, ...) are bound by
    Scheme._kernel."""
    d, search = range(degree), _ORBIT_SEARCH[reduce]
    v = ", ".join(f"v{r}" for r in d)
    rows = ", ".join("".join(f"m{r}_{c} * v{c} + " for c in d) + f"o{r}[a]{search['offset']}"
                     for r in d)
    lowest = _ORBIT_LOWEST.format(v=v, v_g=", ".join(f"v{r} // g" for r in d)) if reduce else ""
    powers = "" if reduce else "    {}, gap = {}, 1 - q_gap // D\n".format(
        ", ".join(f"p{c}" for c in d), ", ".join(f"q{c} // D" for c in d))
    return _ORBIT_SOURCE.format(v=v, key=f"({v}, D)" if reduce else f"({v},)",
                                o=", ".join(f"o{r}" for r in d), powers=powers,
                                t=" + ".join(f"p{c} * v{c}" for c in d),
                                e=" + ".join(f"(v{c} if v{c} >= 0 else -v{c})" for c in d),
                                rows=rows, lowest=lowest, **search)


def _walk_code(degree):
    """The oracle's walk and descent for the degree d: make() -> (walk, descend),
    each one loop on the locals v_0..v_(d-1) of a node v/D.  Its children w/E,
    w = z - a*E, z_c = -(M*v_(c-1) + v_(d-1)*q_c) and E = D*M, are read for the
    digits a whose bounds meet [l, r] (_WALK_NODE), feasible by the bounds, else
    by a tie d*w = E*n with the end they straddle, counted in the local `ties`,
    else by the exact test.  Both start at x's state (v, D) and return (result,
    ties).  walk(v, D, depth, budget, levels) gives the level `depth` levels on,
    {vector: prefixes} over one denominator, or None past `budget` nodes (a node
    counts 1, or its prefixes with `levels`, which gets each level's (v, a, w)
    edges).  descend(v, D, depth, k) keeps the first (k = 0) or last (k = -1)
    feasible digit, then the other end at each place: (digits, last state
    (w, E)).  An empty first level gives an empty result, and both rescale only
    when E changes.  Other names (q_c, M, fb, the ends' vectors l_c, ld, r_c,
    rd, ...) are bound by _children."""
    d = range(degree)
    w = "".join(f", z{c}" for c in d[1:])   # w's coordinates after w0
    ties = {f"tie_{e}": " and ".join(f"{e}d * {'z' if c else 'w'}{c} == E * {e}{c}" for c in d)
            + " and (ties := ties + 1)" for e in "lr"}
    node = _WALK_NODE.format(
        z="\n".join(f"            z{c} = -(" + f"M * v{c - 1} + " * (c > 0) + f"v{d[-1]} * q{c})"
                    for c in d),
        t=" + ".join(f"p{c} * z{c}" for c in d), e=" + ".join(f"abs(z{c})" for c in d),
        w=w, **ties)
    return _WALK_SOURCE.format(v=", ".join(f"v{c}" for c in d), w=w, scale=_WALK_SCALE,
                               node=node, walk_node="    " + node.replace("\n", "\n    "))


@context_cached
def _children(ctx):
    """(walk, descend): _walk_code's two loops, built once per context, every
    constant of the base a name.  A node v/D has a child w/E for every digit a
    with -beta*v/D - a = w/E in I, ascending, E = D*M, M the denominator of the
    modulus; a tie with l or r is feasible, I being closed.  No node is reduced:
    a level's nodes share E, so equal vectors are equal remainders.  Neither
    loop keeps any state between calls, and each calls the context only on the
    exact test: it returns its tie count, and _walked adds it once."""
    I = interval_I(ctx)
    power = ctx.beta() ** ctx.degree
    names = {f"q{c}": q for c, q in enumerate(power.num)}   # beta^d = (q_0 + ...)/M
    for end, p in (("l", I.lo), ("r", I.hi)):
        names.update((f"{end}{c}", n) for c, n in enumerate(p.num))
        names[end + "d"] = p.den
    names.update(zip(("ll", "lh", "rl", "rh"), _I_bounds(ctx)))
    names.update(M=power.den, fb=ctx.floor_beta, bits=_FILTER_BITS, ctx=ctx, contains=I.contains,
                 reduced=_reduced)
    return _compiled(_walk_code, ctx, names)()


def feasible_digits(x):
    """Digits a with -beta*x - a still representable: one level of the walk,
    its ties counted in one call; none outside I."""
    levels = []   # a level has at most floor(beta) + 1 nodes
    ties = _children(x.context)[0](x.num, x.den, 1, x.context.floor_beta + 1, levels)[1]
    if ties:
        x.context._count("kernel_ties", ties)
    return [a for _, a, _ in levels[0]]


def _require_in(I, x):
    if not I.contains(x):
        raise DomainError(f"x = {x.as_text()} outside {I}")


def _walked(x, depth, which, *args):
    """One compiled loop of _children from x over `depth` levels or places,
    through one guard: the walk (which = 0, args the budget and the levels),
    giving its last level or None past the budget, or the descent (which = 1,
    args k), giving (digits, (w, E)), the unreduced last state w/E.  k = 0
    takes the first feasible digit at the first place and the other end at
    every place after it, the alternate-order maximal prefix, and k = -1 the
    minimal.  A depth below 1 is refused once x is found in I, and the loop's
    ties are added to the context in one call.  A remainder in I has a
    feasible child, so only the first level can be empty, exactly when x is
    outside I."""
    if depth < 1:
        _require_in(interval_I(x.context), x)
        raise ValueError("depth must be at least 1")
    out, ties = _children(x.context)[which](x.num, x.den, depth, *args)
    if ties:
        x.context._count("kernel_ties", ties)
    if out is not None and not out:   # an empty first level; None is past the budget
        _require_in(interval_I(x.context), x)
    return out


def step_min_digit(x):
    """Smallest feasible digit and the matching remainder -beta*x - a.

    This is the digit choice that is greatest in the alternate order on
    single digits, the first digit of the greedy representation.
    """
    (a,), (w, E) = _walked(x, 1, 1, 0)
    return a, _lowest(x.context, w, E)


def step_max_digit(x):
    """Largest feasible digit and the matching remainder."""
    (a,), (w, E) = _walked(x, 1, 1, -1)
    return a, _lowest(x.context, w, E)


class Expansion(_Record):
    """A produced digit string plus how it was obtained."""

    __slots__ = _fields = ("word", "status", "endpoint")
    _defaults = {"status": STATUS_OK, "endpoint": None}
    __dataclass_fields__ = _dataclass_fields

    def __init__(self, word, status=STATUS_OK, endpoint=None):
        # the fields set by name, with no generic argument handling: every
        # expansion builds one record
        _set(self, "word", word)
        _set(self, "status", status)
        _set(self, "endpoint", endpoint)

    @property
    def ok(self):
        return self.status == STATUS_OK


def _end_bounds(domain):
    """(l_lo, l_hi, r_lo, r_hi): the 64-bit bounds of the ends l, r of `domain`."""
    return (*_dyadic_bounds(domain.lo), *_dyadic_bounds(domain.hi))


def _scaled_products(xs, y):
    """(lo, hi), lazily, with lo <= 2^64 * X * Y <= hi for each x of xs, from
    bounds x of 2^64 * X and y of 2^64 * Y, y of one sign: X*Y is least at
    x's end whose sign is that of Y, and greatest at the other."""
    y0, y1 = y
    if y0 < 0:
        return (((b * (y0 if b >= 0 else y1)) >> _FILTER_BITS,
                 -(-(a * (y1 if a >= 0 else y0)) >> _FILTER_BITS)) for a, b in xs)
    return (((a * (y0 if a >= 0 else y1)) >> _FILTER_BITS,
             -(-(b * (y1 if b >= 0 else y0)) >> _FILTER_BITS)) for a, b in xs)


@context_cached
def _I_bounds(ctx):
    return _end_bounds(interval_I(ctx))


def _orbit(domain, ends, x, stepper, depth, orbit_budget):
    """(digits, start, endpoint) along the orbit of the point x of `domain`,
    ends the 64-bit bounds of its ends (_end_bounds), where stepper(x) ->
    (orbit, (v, D)) and orbit is the compiled loop of _kernel_code; start is
    where the period starts, or None when orbit_budget ran out first.

    The budget is tested first, then x and the depth, all before stepper
    runs, so a point outside the domain builds no tables.  Where the 64-bit
    bounds of x lie strictly between those of the ends, x is in the domain
    and on neither end; only where they straddle an end, or x has another
    context object, does the exact test run, and tag l or r or refuse a
    foreign field.
    With a depth, exactly that many digits, start being their number.
    Otherwise the loop keys each state and the first repeat closes the
    period: one call of the loop either way.
    """
    if orbit_budget < 1:
        raise ValueError("orbit_budget must be at least 1")
    lo, hi = _dyadic_bounds(x)
    endpoint = None
    if lo <= ends[1] or hi >= ends[2] or x.context is not domain.lo.context:
        _require_in(domain, x)
        endpoint = "l" if x == domain.lo else "r" if x == domain.hi else None
    if depth is not None and depth < 1:
        raise ValueError("depth must be at least 1")
    orbit, (v, D) = stepper(x)
    digits, start, _ = orbit(v, D, orbit_budget if depth is None else depth, depth is None)
    return digits, start if depth is None else depth, endpoint


def _expansion(digits, start, endpoint, scheme=None, pairs=False):
    """The Expansion of _orbit's digits, read as two letters each with
    `pairs`: the period from step `start` on, or a finite prefix marked
    period-not-found when start is None.  A period found on a scheme whose
    orbits close on their canonical word (Scheme._closes) is built as the
    loop's first repeat left it (DigitString._of_orbit), any other by the
    general constructor; a word cut to the depth is canonical as it stands."""
    if start is None:
        return Expansion(DigitString.finite(digits), STATUS_PERIOD_NOT_FOUND, endpoint)
    flat = _letters if pairs else tuple
    pre, per = flat(digits[:start]), flat(digits[start:])
    if per and not scheme._closes:
        return Expansion(DigitString(pre, per), STATUS_OK, endpoint)
    return Expansion(DigitString._of_orbit(pre, per, pairs), STATUS_OK, endpoint)


def _pair_orbit(x, kind, depth, orbit_budget):
    """The theorem: greedy (lazy) digits are the beta^2 greedy (lazy) pair
    digits, two letters each.  The scheme's orbit runs ceil(n/2) pair steps
    for n letters; its pairs are read as letters, and a period found starts at
    twice its pair place, while a finite word is cut back to the depth or the
    budget.  The scheme is built (once per context) after x is found in I."""
    ctx, n = x.context, orbit_budget if depth is None else depth
    pairs, start, endpoint = _orbit(
        interval_I(ctx), _I_bounds(ctx), x, lambda y: build_beta2_scheme(ctx, kind)._stepper(y),
        None if depth is None else -(-n // 2), -(-orbit_budget // 2))
    if depth is None and start is not None:
        return _expansion(pairs, start, endpoint, build_beta2_scheme(ctx, kind), True)
    return _expansion(_letters(pairs)[:n], None if start is None else n, endpoint)


def greedy_neg_beta(x, depth=None, orbit_budget=DEFAULT_ORBIT_BUDGET):
    """Greedy digits of x in base -beta: the alternate-order maximum of
    all representations.  depth=None detects the eventual period."""
    return _pair_orbit(x, "greedy", depth, orbit_budget)


def lazy_neg_beta(x, depth=None, orbit_budget=DEFAULT_ORBIT_BUDGET):
    """Lazy digits of x in base -beta: the alternate-order minimum."""
    return _pair_orbit(x, "lazy", depth, orbit_budget)


def symmetric_partner(x):
    """The point -floor(beta)/(beta+1) - x; its lazy digits are the
    digitwise complement of the greedy digits of x."""
    I = interval_I(x.context)
    return I.lo + I.hi - x   # l + r = -floor(beta)/(beta+1)


# -- squared-base schemes ---------------------------------------------------------

@context_cached
def all_pair_digits(ctx):
    """The pair alphabet in increasing value -b*beta + a: b falling, a rising
    (beta > floor(beta) >= a), so that p sits at _pair_index(ctx, p)."""
    fb = ctx.floor_beta
    return tuple(map(_pair_digit, product(range(fb, -1, -1), range(fb + 1))))


def _pair_index(ctx, p):
    """Pair p's place (fb - b)(fb + 1) + a in the value order, fb = floor(beta)."""
    n = ctx.floor_beta + 1
    if isinstance(p, tuple) and len(p) == 2:
        b, a = p
        if type(b) is not int or type(a) is not int:
            try:   # equal numbers hash alike, so 1.0, Fraction(1) and True are 1
                b, a = (c if type(c) is int else hash(c) for c in p)
            except TypeError:   # an unhashable letter
                b = -1
        if 0 <= b < n and 0 <= a < n and b == p[0] and a == p[1]:
            return (n - 1 - b) * n + a
    raise ValueError(f"pair digit {p} outside the alphabet")


def pair_value(ctx, p):
    return ctx.element(p[1]) - ctx.beta() * p[0]


def pair_successor(ctx, p):
    return _pair_neighbour(ctx, p, 1)


def pair_predecessor(ctx, p):
    return _pair_neighbour(ctx, p, -1)


def _pair_neighbour(ctx, p, step):
    """The pair digit `step` places from p in the value order."""
    i = _pair_index(ctx, p) + step
    if not 0 <= i < (ctx.floor_beta + 1) ** 2:
        raise ValueError("the maximal pair digit has no successor" if step > 0
                         else "the minimal pair digit has no predecessor")
    return _pair_at(ctx, i)


def _pair_at(ctx, i):
    """The pair digit at place i of the value order."""
    n = ctx.floor_beta + 1
    return _pair_digit((n - 1 - i // n, i % n))


def greedy_breakpoint(ctx, p):
    """Left endpoint gamma_p = (v_p + l)/beta^2 of the squared-base greedy
    cell of pair digit p, I = [l, r]."""
    return _breakpoint(ctx, p, interval_I(ctx).lo)


def lazy_breakpoint(ctx, p):
    """Right endpoint delta_p = (v_p + r)/beta^2 of the squared-base lazy
    cell of pair digit p, I = [l, r]."""
    return _breakpoint(ctx, p, interval_I(ctx).hi)


def _breakpoint(ctx, p, end):
    """(v_p + end)/beta^2, v_p the value of the pair at p's place, so that
    (1.0, 0) is 1:0; no table of the pair alphabet is built."""
    v = pair_value(ctx, _pair_at(ctx, _pair_index(ctx, p)))
    return _preimage(ctx.beta() * ctx.beta(), v, end)


def _preimage(base, v, end):
    """(v + end)/base: the point that x -> base*x - v sends to `end`.  Every
    cut of every scheme is one, as is every beta^2 breakpoint and every end
    of a digit subinterval."""
    return (v + end) * _inverse(base.context, base.num, base.den)


@context_cached
def _inverse(ctx, num, den):
    """1/base for the base num/den, once per context: only -beta, beta and
    beta^2 come here."""
    return ExactReal(ctx, num, den).inverse()


class SchemeCell(_Record):
    __slots__ = _fields = ("interval", "digit", "value")


class Scheme(_Record):
    """A (base, domain, digit map) triple with T(x) = base*x - D(x).

    The digit map is piecewise constant over the cells, which tile the
    domain left to right; construction via validate() checks exactly that
    the cells tile the domain in increasing order and that every cell image
    lands inside the domain again.  Every cell search is one bisection over
    the cells' right ends, which that order makes increasing.
    """

    __slots__ = ("base", "domain", "cells", "__dict__")
    _fields = ("base", "domain", "cells")

    def validate(self):
        """The end cells lie in the domain and span it, its ends and their
        closedness included; each cell shares its right end with the next,
        which holds it if it does not; each has its left end below its right,
        the order every bisection over them needs.  Together these put every
        cell in the domain.  Each end is multiplied by the base once for the
        images."""
        cells, domain = self.cells, self.domain
        if not cells:
            raise ValueError("cells must span the domain")
        first, last = cells[0].interval, cells[-1].interval
        for iv in (first, last):
            if not _subset(iv, domain):
                raise ValueError(f"cell {iv} escapes the domain {domain}")
        if Interval(first.lo, last.hi, first.lo_closed, last.hi_closed) != domain:
            raise ValueError("cells must span the domain")
        for a, b in zip(cells, cells[1:]):
            if a.interval.hi != b.interval.lo or a.interval.hi_closed == b.interval.lo_closed:
                raise ValueError("cells do not tile the domain")
        up = self.base.sign() > 0
        ends = [self.base * domain.lo] + [self.base * cell.interval.hi for cell in cells]
        for cell, lo_end, hi_end in zip(cells, ends, ends[1:]):
            iv = cell.interval
            if iv.lo.compare(iv.hi) >= 0:
                raise ValueError(f"cell {iv} is out of order")
            lo_img, hi_img = lo_end - cell.value, hi_end - cell.value
            if up:
                image = Interval(lo_img, hi_img, iv.lo_closed, iv.hi_closed)
            else:
                image = Interval(hi_img, lo_img, iv.hi_closed, iv.lo_closed)
            if not _subset(image, domain):
                raise ValueError(f"cell {iv}: image {image} escapes the domain {domain}")
        return self

    def _index(self, x, i, j):
        """The place of x's cell, given that cells i..j hold x: a bisection for
        the first of cells i..j-1 whose right end is above x, or is x and
        closed, else j."""
        return bisect_left(self.cells, (0, True), i, j,
                           key=lambda cell: (cell.interval.hi.compare(x), cell.interval.hi_closed))

    def _straddled(self, v, D, i, j):
        """The cell of y = v/D where the bounds leave cuts i..j-1 undecided, so
        that cells i..j hold y: the closed side of a cut y ties, else the exact
        bisection over cells i..j only.  y is the cut n/d by its vectors where
        d*v = D*n, a test sound on every context."""
        for k in range(i, j):
            iv = self.cells[k].interval
            if all(iv.hi.den * c == D * m for c, m in zip(v, iv.hi.num)):
                self.base.context._count("kernel_ties")
                return k if iv.hi_closed else k + 1
        return self._index(_reduced(self.base.context, v, D), i, j)

    def _cell(self, powers, gap, v, D):
        """The cell of y = v/D where the loop's bounds straddle a cut: a
        single step's search as the one-step loop made it, one bisection of
        the single cuts' 64-bit bounds by the 64-bit powers and gap that
        Scheme._kernel binds, then _straddled where they straddle.  So a tie
        or exact fallback is counted only for a step whose own 64-bit bounds
        straddle, and a one-step call counts those of its step."""
        _, _, lo, hi, *_ = self._lattice
        t, e = sum(map(mul, powers, v)), gap * sum(map(abs, v))
        j = bisect_right(lo, (t + e) // D)
        if j and hi[j - 1] * D >= t - e:
            return self._straddled(v, D, bisect_left(hi, -((e - t) // D)), j)
        return j

    @cached_property
    def _lattice(self):
        # the kernel's table over one common denominator L: the matrix of L*base,
        # _base_matrix's brought to L, shared by every cell; the offsets
        # -L*(cell value)_r of every cell, coordinate by coordinate in one tuple,
        # so that w_r = sum_c m[r][c] * v_c + offset_r * D, and one pass scales
        # them all by D; 64-bit bounds of the cuts made monotone for bisection;
        # the digits; L; and k, which every common factor of a next state
        # (w, D*L) divides when v/D is reduced
        ctx, cells, d = self.base.context, self.cells, self.base.context.degree
        A, L0 = _base_matrix(ctx, self.base.num, self.base.den)
        L = lcm(L0, *(c.value.den for c in cells))
        matrix = tuple(tuple(m * (L // L0) for m in row) for row in A)
        offsets = tuple(-c.value.num[r] * (L // c.value.den) for r in range(d) for c in cells)
        bounds = [_dyadic_bounds(c.interval.hi) for c in cells[:-1]]
        lo = tuple(accumulate(reversed([lo for lo, _ in bounds]), min))[::-1]
        hi = tuple(accumulate([hi for _, hi in bounds], max))
        k = 1 if L == 1 else (L * lcm(*(c.value.den for c in cells))
                              * self.base.inverse().den * ctx._table_den)
        return matrix, offsets, lo, hi, tuple(c.digit for c in cells), L, k

    @cached_property
    def _ends(self):
        return _end_bounds(self.domain)

    @cached_property
    def _square(self):
        """(lo, hi, firsts, seconds): the cells of the map S applied twice, left
        to right, each the points of cell a that S sends to cell b, as a in
        firsts and b in seconds, and 64-bit bounds of the cuts between them
        made monotone for bisection, read off the 64-bit bounds of the
        validated scheme with no exact arithmetic.  Cell a is cut where S
        reaches a single cut c_j, at (v_a + c_j)/base, for each c_j whose
        bounds meet those of S(cell a), and the single cut c_a follows it.
        Bounds that straddle no cut put a point strictly above every cut
        before its place and below every cut after it, so in the cells of the
        pair there, even where cuts within each other's bounds come out of
        order: the monotone bounds make every point between such cuts
        straddle.  A square past _SQUARE_CELLS cells is the scheme's own cuts,
        each cell a with no b (None), so that the loop searches the single
        cuts at each step, as the one-step loop did; the count of its cells
        stops at the first cell past the bound."""
        _, _, lo, hi, *_ = self._lattice
        l_lo, l_hi, r_lo, r_hi = self._ends
        base, n = _dyadic_bounds(self.base), len(self.cells)
        size = n if base[0] > 0 or base[1] < 0 else _SQUARE_CELLS + 1   # each cell has a b
        ends = _scaled_products(chain(((l_lo, l_hi),), zip(lo, hi), ((r_lo, r_hi),)), base)
        values, ranges = [], []
        for cell, (p, q) in zip(self.cells, pairwise(ends)):
            if size > _SQUARE_CELLS:
                break
            # the first and last cell b that S(cell a) = base*(cell a) - v_a may meet
            v_lo, v_hi = _dyadic_bounds(cell.value)
            i = bisect_left(hi, min(p[0], q[0]) - v_hi)
            j = bisect_right(lo, max(p[1], q[1]) - v_lo)
            size += j - i
            values.append((v_lo, v_hi))
            ranges.append((i, j))
        if size > _SQUARE_CELLS:
            return lo, hi, list(range(n)), [None] * n
        one = 1 << 2 * _FILTER_BITS   # 1/base by 2^64/base's bounds
        inverse = one // base[1], -(-one // base[0])
        # (v_a + c_j)/base = v_a/base + c_j/base, for the cuts c_j in cell a's
        # image in the order of its cells b, then the single cut c_a
        over = list(_scaled_products(zip(lo, hi), inverse))
        over_lo, over_hi = [c for c, _ in over], [c for _, c in over]
        step, firsts, seconds, cut_lo, cut_hi = 1 if base[0] > 0 else -1, [], [], [], []
        for a, ((w_lo, w_hi), (i, j)) in enumerate(zip(_scaled_products(values, inverse), ranges)):
            firsts += repeat(a, j - i + 1)
            seconds += range(i, j + 1)[::step]
            cut_lo += map(w_lo.__add__, over_lo[i:j][::step])
            cut_hi += map(w_hi.__add__, over_hi[i:j][::step])
            cut_lo += lo[a:a + 1]
            cut_hi += hi[a:a + 1]
        return (tuple(accumulate(reversed(cut_lo), min))[::-1], tuple(accumulate(cut_hi, max)),
                firsts, seconds)

    @cached_property
    def _kernel(self):
        """make(offsets, D) -> orbit: the compiled loop of the base's degree
        and of the flag L != 1 (_kernel_code), run in a namespace that binds
        this scheme's matrix, digits, square cells and constants by name."""
        matrix, _, _, _, digits, L, k = self._lattice
        lo, hi, firsts, seconds = self._square
        if L == 1:   # at 2^128, the scale of t over a fixed D
            lo, hi = [b << _FILTER_BITS for b in lo], [b << _FILTER_BITS for b in hi]
        names = {f"m{r}_{c}": m for r, row in enumerate(matrix) for c, m in enumerate(row)}
        powers, gap = _lattice_powers(self.base.context)
        names.update((f"q{c}", p << _FILTER_BITS) for c, p in enumerate(powers))
        n = len(digits)   # the offsets of coordinate r are offsets[r*n:(r+1)*n]
        names.update(digits=digits, columns=[slice(r * n, r * n + n) for r in range(len(matrix))],
                     lo=lo, hi=hi, firsts=firsts, seconds=seconds, L=L, k=k,
                     cell=partial(self._cell, powers, gap), q_gap=-gap << _FILTER_BITS,
                     bisect_right=bisect_right, gcd=gcd)
        return _compiled(_kernel_code, self.base.context, names, L != 1)

    _entry = (None, None)   # the stepper's (D, orbit), replaced whole: no lock

    def _stepper(self, x):
        """(orbit, (v, D)): the scheme's compiled loop (_kernel_code) for the
        orbit of x, and x's state y = v/D.  With L = 1, D stays den(x), and the
        loop holds the cell offsets scaled by it and floor(2^128*beta^c/D), d
        divisions in make, not a pass over the cuts of the square.  One entry
        keeps the loop of the last D, read in one unpack.  Otherwise the loop
        divides by D, and one serves every D."""
        _, offsets, _, _, _, L, _ = self._lattice
        D = x.den if L == 1 else 0   # 0: the loop of every D
        last, orbit = self._entry
        if last != D:
            orbit = self._kernel([c * D for c in offsets] if D else offsets, D)
            _set(self, "_entry", (D, orbit))
        return orbit, (x.num, x.den)

    @cached_property
    def _closes(self):
        """Whether an orbit closes on its canonical word at its first repeat
        (DigitString._of_orbit): on a certified context a state's value fixes
        its key, and with |base| > 1 and a digit per cell the digits after a
        state fix its value."""
        return (self.base.context._certified and (self.base * self.base - 1).sign() > 0
                and len({cell.digit for cell in self.cells}) == len(self.cells))

    def locate(self, x):
        _require_in(self.domain, x)
        return self.cells[self._index(x, 0, len(self.cells) - 1)]

    def step(self, x):
        cell = self.locate(x)
        return cell.digit, self.base * x - cell.value


def _tiled_scheme(base, domain, digits, values, at_hi=False):
    """The scheme of x -> base*x - v on `domain`, one digit and value v per
    cell in increasing order, each cell cut where its map reaches the low end
    of the domain, or the high end when at_hi: at (v + end)/base.  That is the
    cell's left end when the map rises to the low end or falls to the high
    one, so the cuts go before every cell but the first, else after every
    cell but the last; a cell holds its cut exactly when the domain holds
    the end, and the two end cells are closed where the domain is."""
    values = tuple(values)
    end, closed = (domain.hi, domain.hi_closed) if at_hi else (domain.lo, domain.lo_closed)
    before = (base.sign() > 0) != at_hi
    cuts = [_preimage(base, v, end) for v in (values[1:] if before else values[:-1])]
    ends = (domain.lo, *cuts, domain.hi)
    # holds[i]: whether ends[i] lies in the cell on its right
    holds = (domain.lo_closed, *[closed == before] * len(cuts), not domain.hi_closed)
    cells = tuple(SchemeCell(Interval(ends[i], ends[i + 1], holds[i], not holds[i + 1]), d, v)
                  for i, (d, v) in enumerate(zip(digits, values)))
    return Scheme(base, domain, cells).validate()


def _pair_tiling(ctx, pairs, domain, at_hi=False):
    """The squared-base tiling of `domain` by `pairs`, in increasing value,
    each pair's value v computed once: the cells start at (v + l)/beta^2
    (greedy_breakpoint) when `domain` starts at l, or, at_hi, end at
    (v + r)/beta^2 (lazy_breakpoint), I = [l, r]."""
    return _tiled_scheme(ctx.beta() * ctx.beta(), domain, pairs,
                         [pair_value(ctx, p) for p in pairs], at_hi)


@context_cached
def build_beta2_scheme(ctx, kind):
    """The squared-base scheme whose digit string maps under the pair
    morphism to the greedy (resp. lazy) digits in base -beta: the whole
    pair alphabet tiling I, cells [gamma_i, gamma_{i+1}) (resp.
    (delta_{i-1}, delta_i]).  The kind is tested before anything is built."""
    if kind not in ("greedy", "lazy"):
        raise ValueError("kind must be 'greedy' or 'lazy'")
    return _pair_tiling(ctx, all_pair_digits(ctx), interval_I(ctx), kind == "lazy")


@context_cached
def build_ito_sadahiro_scheme(ctx):
    """The classical Ito-Sadahiro system: D(x) = floor(-beta*x + beta/(beta+1))
    on [l, l + 1), l = -beta/(beta+1); the digit-k cell ends where
    -beta*x - k reaches l."""
    beta = ctx.beta()
    l = -(beta * (beta + 1).inverse())
    digits = range(ctx.floor_beta, -1, -1)
    return _tiled_scheme(-beta, Interval(l, l + 1, True, False), digits,
                         map(ctx.element, digits))


@context_cached
def build_positive_greedy_scheme(ctx):
    """The classical positive-base greedy scheme D(x) = floor(beta*x) on
    [0, 1); used for order-preservation checks against the negative case."""
    digits = range(ctx.floor_beta + 1)
    return _tiled_scheme(ctx.beta(), Interval(ctx.element(0), ctx.element(1), True, False),
                         digits, map(ctx.element, digits))


def run_scheme(scheme, x, depth=None, orbit_budget=DEFAULT_ORBIT_BUDGET):
    """Iterate the scheme from x, collecting digits; period-detect when
    depth is None."""
    return _expansion(*_orbit(scheme.domain, scheme._ends, x, scheme._stepper, depth,
                              orbit_budget), scheme)


# -- evaluation ------------------------------------------------------------------

def eval_digits(word, base, digit_value=None):
    """Exact value sum digit_i * base^(-i) of a finite or eventually
    periodic digit string.  digit_value maps a digit to its element; by
    default the digit is an integer and stands for itself.

    Each part is one integer Horner pass with no gcd (_horner): the
    preperiod's P = sum d_i base^(n-i) and base^n, the period's Q and
    base^q, every digit an integer vector over the digits' common
    denominator E.  The value (P*(base^q - 1) + Q) / ((base^q - 1)*base^n),
    or P/base^n for a finite word, is then a few products and one inverse."""
    ctx, pre, per = base.context, word.preperiod, word.period
    value = ctx.element if digit_value is None else digit_value
    values = {a: value(a) for a in {*pre, *per}}
    E = lcm(*(v.den for v in values.values()))
    vectors = {a: tuple(c * (E // v.den) for c in v.num) for a, v in values.items()}
    horner = _horner_scalar if ctx.degree == 1 else _horner
    A, L = _base_matrix(ctx, base.num, base.den)
    u, p, K = horner(pre, vectors, A, L)
    # integer vectors over 1 are in lowest terms
    U, P = ExactReal(ctx, u, 1), ExactReal(ctx, tuple([E * c for c in p]), 1)
    if not per:
        return U * P.inverse()   # (u/(E*K)) / (p/K)
    v, s, M = horner(per, vectors, A, L)
    y = (s[0] - M,) + s[1:]   # M*(base^q - 1)
    if not pre:
        return ExactReal(ctx, v, 1) * ExactReal(ctx, tuple([E * c for c in y]), 1).inverse()
    Y = ExactReal(ctx, y, 1)
    return (U * Y + ExactReal(ctx, tuple([K * c for c in v]), 1)) * (Y * P).inverse()


@context_cached
def _base_matrix(ctx, num, den):
    """(A, L): the base num/den as the integer matrix A over L, row r column c
    the r-th coordinate of L*base*beta^c, once per context and base."""
    base = ExactReal(ctx, num, den)
    cols = [base * ctx.beta() ** c for c in range(ctx.degree)]
    L = lcm(*(y.den for y in cols))
    return tuple(zip(*(tuple(n * (L // y.den) for n in y.num) for y in cols))), L


def _horner(part, vectors, A, L):
    """(u, p, K) with sum w_i * base^(n-i) = u/K and base^n = p/K, K = L^n, w_i
    the vectors of the n digits of part and the base the matrix A over L: one
    pass of integer matrix products, with no gcd."""
    u, p, K = (0,) * len(A), (1,) + (0,) * (len(A) - 1), 1
    for a in part:
        K *= L
        u = tuple([sum(map(mul, row, u)) + K * c for row, c in zip(A, vectors[a])])
        p = tuple([sum(map(mul, row, p)) for row in A])
    return u, p, K


def _horner_scalar(part, vectors, A, L):
    """_horner on a degree-one context: integers, and base^n in closed form."""
    (a,), = A
    u, K = 0, 1
    for c in part:
        K *= L
        u = a * u + K * vectors[c][0]
    return (u,), (a ** len(part),), K


def eval_neg_beta(ctx, word):
    """Value of an int-digit string in base -beta."""
    return eval_digits(word, -ctx.beta())


def eval_beta2_pairs(ctx, word):
    """Value of a pair-digit string in base beta^2."""
    return eval_digits(word, ctx.beta() * ctx.beta(),
                       lambda p: pair_value(ctx, p))


def eval_pos_beta(ctx, word):
    """Value of an int-digit string in base +beta."""
    return eval_digits(word, ctx.beta())
