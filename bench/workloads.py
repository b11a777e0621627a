"""The benchmark's workloads: seeded inputs, the timed operations, and the
independent check of every output.

A workload builds its program-side state in `setup(nb)` (nb is the
imported `negabase` package) and hands out rounds: `make_round(draw)`
returns a list of `Op`s whose make-up is fixed and whose inputs come from
`draw` (see `Draw`).  Every round of a workload has the same strata.
ROUND_SECONDS is the wall time of one round (inputs, operations, checks)
on the machine the benchmark was tuned on; a run times
ceil(--seconds / ROUND_SECONDS) rounds, the same number in every run.  `Op.call()` is the
timed operation; `Op.check(result)` is untimed, uses only `checker`, and
returns None when the output is right or a short reason when it is wrong.
It raises `Failed` when the program gave no result (an error exit, a
missing period).
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, sqrt

import checker as ck

R = Fraction


class Failed(Exception):
    """The operation ended without a result."""


class Op:
    __slots__ = ("kind", "base", "call", "check", "size")

    def __init__(self, kind, base, call, check, size=0):
        self.kind = kind        # e.g. "greedy", "pairs-lazy", "count", "expand"
        self.base = base        # base label, e.g. "phi", "7_4"
        self.call = call
        self.check = check
        self.size = size        # digits in the input word (admissibility)


# -- bases ---------------------------------------------------------------------

RT3 = ((-2, -2, 1), R(27, 10), R(28, 10))
TETRANACCI = ((-1, -1, -1, -1, 1), R(1), R(2))

CHECK_FIELDS = {
    "phi": ((-1, -1, 1), 1, 2),
    "tribonacci": ((-1, -1, -1, 1), 1, 2),
    "rt3": RT3,
    "tetranacci": TETRANACCI,
    "7_4": ((-7, 4), 1, 2),
    "14_5": ((-14, 5), 2, 3),
    "7_2": ((-7, 2), 3, 4),
}

CLI_BASE = {
    "phi": "phi",
    "tribonacci": "tribonacci",
    "rt3": "root(x^2-2x-2, 27/10, 28/10)",
    "14_5": "14/5",
    "7_4": "7/4",
}


def check_base(label):
    return ck.Base(label, ck.Field(*CHECK_FIELDS[label]))


def program_context(nb, label):
    if label == "phi":
        return nb.phi_field()
    if label == "tribonacci":
        return nb.tribonacci_field()
    poly, lo, hi = CHECK_FIELDS[label]
    if len(poly) == 2:
        return nb.rational_field(R(-poly[0], poly[1]))
    return nb.field_from_poly(poly, lo, hi)


def numerators(base, q, domain):
    """Numerators p with p/q in lowest terms inside the domain ("IS" for
    the Ito-Sadahiro domain, "I" for the interior of I)."""
    F = base.f
    out = []
    for p in range(-4 * q, 2 * q):
        if gcd(p, q) != 1:
            continue
        x = F.const(R(p, q))
        if domain == "IS":
            inside = base.in_IS(x)
        else:
            inside = base.in_I(x) and F.cmp(x, base.l) > 0 and F.cmp(base.r, x) > 0
        if inside:
            out.append(p)
    return out


def word_of(exp):
    w = exp.word
    return tuple(w.preperiod), tuple(w.period)


def pairs_of(exp):
    w = exp.word
    return (tuple((p[0], p[1]) for p in w.preperiod),
            tuple((p[0], p[1]) for p in w.period))


# -- expand ----------------------------------------------------------------------


class Expand:
    """Period-detected greedy, lazy, Ito-Sadahiro and beta^2-greedy/lazy
    expansions of rational points of the Ito-Sadahiro domain for phi,
    Tribonacci and rt3, one point per denominator stratum; fixed-depth
    greedy and lazy expansions in Tetranacci (uncertified, degree 4) and
    in 7/4 (degree 1, growing denominators)."""

    name = "expand"
    ROUND_SECONDS = 1.2
    WARM_REPEAT = 1
    PERIODIC = {
        # denominator -> orbit length is nearly constant, so each stratum
        # costs the same in every round
        "phi": (13, 17, 23, 25, 27, 31),
        "tribonacci": (7, 9, 11, 17),
        "rt3": (7, 14, 17, 19, 25, 27),
    }
    FIXED = {"tetranacci": ((7, 11, 13, 9), 24), "7_4": ((5, 7, 9, 11, 13, 3), 48)}
    WARM_PERIODIC = {"phi": (11,), "tribonacci": (8,), "rt3": (13,)}
    WARM_FIXED = {"tetranacci": ((5,), 24), "7_4": ((17,), 48)}
    KINDS = ("greedy", "lazy", "is", "beta2-greedy", "beta2-lazy")

    def __init__(self):
        self.check = {b: check_base(b) for b in list(self.PERIODIC) + list(self.FIXED)}
        self.points = {}
        for strata in (self.PERIODIC, self.WARM_PERIODIC):
            for b, qs in strata.items():
                for q in qs:
                    self.points[b, q] = numerators(self.check[b], q, "IS")
        for strata in (self.FIXED, self.WARM_FIXED):
            for b, (qs, _) in strata.items():
                for q in qs:
                    self.points[b, q] = numerators(self.check[b], q, "I")

    def setup(self, nb):
        self.nb = nb
        self.ctx = {}
        self.schemes = {}
        for b in self.check:
            ctx = self.ctx[b] = program_context(nb, b)
            nb.interval_I(ctx)
            if b in self.PERIODIC:
                self.schemes[b] = {
                    "is": nb.build_ito_sadahiro_scheme(ctx),
                    "beta2-greedy": nb.build_beta2_scheme(ctx, "greedy"),
                    "beta2-lazy": nb.build_beta2_scheme(ctx, "lazy"),
                }

    def contexts(self):
        return self.ctx

    def make_round(self, draw, warm=False):
        nb = self.nb
        ops = []
        for b, qs in (self.WARM_PERIODIC if warm else self.PERIODIC).items():
            for q in qs:
                x = R(draw.sweep((b, q), self.points[b, q]), q)
                xe = self.ctx[b].element(x)
                refs = {}
                for kind in self.KINDS:
                    ops.append(Op(kind, b, self._caller(kind, b, xe),
                                  self._checker(kind, b, x, refs)))
        for b, (qs, depth) in (self.WARM_FIXED if warm else self.FIXED).items():
            for q in qs:
                x = R(draw.sweep((b, q), self.points[b, q]), q)
                xe = self.ctx[b].element(x)
                for kind in ("greedy", "lazy"):
                    fn = nb.greedy_neg_beta if kind == "greedy" else nb.lazy_neg_beta
                    ops.append(Op(kind, b, lambda fn=fn, xe=xe, d=depth: fn(xe, d),
                                  self._fixed_checker(kind, b, x, depth)))
        return ops

    def _caller(self, kind, b, xe):
        nb = self.nb
        if kind == "greedy":
            return lambda: nb.greedy_neg_beta(xe)
        if kind == "lazy":
            return lambda: nb.lazy_neg_beta(xe)
        scheme = self.schemes[b][kind]
        return lambda: nb.run_scheme(scheme, xe)

    def _checker(self, kind, b, x, refs):
        base = self.check[b]
        F = base.f

        def ref(which):
            # independent greedy/lazy words of x, shared by the point's ops
            if which not in refs:
                refs[which] = base.alternating(F.const(x), which == "greedy")
            return refs[which]

        def check(exp):
            if not exp.ok:
                raise Failed(f"status {exp.status}")
            xe = F.const(x)
            if kind.startswith("beta2"):
                pre, per = pairs_of(exp)
                if not base.represents(xe, pre, per, base.beta2, base.pair_value):
                    return "beta^2 word does not evaluate to x"
                want = ref(kind.split("-")[1])
                if ck.psi(pre, per) != want:
                    return "psi(beta^2 word) differs from the alternating word"
                return None
            pre, per = word_of(exp)
            if not base.represents(xe, pre, per, base.minus_beta, base.neg_digit_value):
                return "word does not evaluate to x"
            if kind in ("greedy", "lazy"):
                return None if (pre, per) == ref(kind) else f"not the {kind} word"
            lo = ck.alt_cmp(ref("lazy"), (pre, per))
            hi = ck.alt_cmp((pre, per), ref("greedy"))
            if lo > 0 or hi > 0:
                return "Ito-Sadahiro word outside [lazy, greedy] in the alternate order"
            return None

        return check

    def _fixed_checker(self, kind, b, x, depth):
        base = self.check[b]

        def check(exp):
            got = word_of(exp)
            # every remainder must stay in I and each digit be the extremal
            # feasible one: exactly the independent depth-limited walk
            want = base.alternating(base.f.const(x), kind == "greedy", depth=depth)
            return None if got == want else f"not the depth-{depth} {kind} prefix"

        return check


# -- admissibility -------------------------------------------------------------------


A, B, C, D = ck.A, ck.B, ck.C, ck.D


def _walk(rng, alphabet, factors, n, prev=None):
    """n letters avoiding the two-letter forbidden factors."""
    out = []
    for _ in range(n):
        options = [a for a in alphabet if prev is None or (prev, a) not in factors]
        prev = rng.choice(options)
        out.append(prev)
    return out


def pair_word(rng, base_name, pre_len, per_len, admissible):
    """An eventually periodic pair word; admissible ones avoid every
    forbidden string, the others carry one forbidden factor late in the
    preperiod or end in a forbidden cycle."""
    alphabet, factors, cycles = ck.FORBIDDEN[base_name]
    factors2 = {f for f in factors if len(f) == 2}
    while True:
        pre = _walk(rng, alphabet, factors2, pre_len)
        per = _walk(rng, alphabet, factors2, per_len, pre[-1])
        if ck.greedy_law(base_name, pre, per):
            break
    if not admissible:
        if rng.random() < 0.75:
            k = pre_len - rng.randrange(3, 9)
            f = rng.choice(factors)
            pre[k:k + len(f)] = f
        else:
            per = list(rng.choice(cycles))
    return tuple(pre), tuple(per), ck.greedy_law(base_name, pre, per)


def golden_binary_word(rng, pre_len, per_len, admissible):
    """Binary word for phi: the letters of a pair word; rejected ones carry
    the pair factor 1:1.0:0 or a pair 0:1 late in the preperiod."""
    pre, per, _ = pair_word(rng, "phi", pre_len, per_len, True)
    pre = list(pre)
    if not admissible:
        k = pre_len - rng.randrange(3, 9)
        bad = [(B, C), (D,)][rng.randrange(2)]
        pre[k:k + len(bad)] = bad
    flat = lambda part: tuple(x for p in part for x in p)
    pre, per = flat(pre), flat(per)
    return pre, per, ck.golden_binary_law(pre, per)


def is_binary_word(rng, base, pre_len, per_len, admissible):
    """Binary word for the golden Ito-Sadahiro system: blocks 1 and 00, so
    every run of 0s between two 1s is even; rejected ones carry 101 late
    in the preperiod.  The independent law decides the final verdict."""
    def blocks(n):
        out = []
        while len(out) < n:
            out.extend((1,) if rng.random() < 0.5 else (0, 0))
        return out
    while True:
        pre = [0] * rng.randrange(0, 3) + blocks(pre_len)
        per = blocks(per_len)
        if 1 not in per:
            per.append(1)
        if not admissible:
            k = len(pre) - rng.randrange(4, 10)
            pre[k:k + 3] = (1, 0, 1)
        want = ck.ito_sadahiro_law(base, pre, per)
        if want == admissible:
            return tuple(pre), tuple(per), want


class Admissibility:
    """is_admissible_greedy / is_admissible_lazy on eventually periodic pair
    words over the minimal alphabets of phi and Tribonacci (the lazy check
    runs on the complement word), golden_forbidden_factor_check and
    ito_sadahiro_admissible on binary words.  Half of each kind is
    admissible; the other half is rejected late in the word."""

    name = "admissibility"
    ROUND_SECONDS = 0.016
    COUNTS = {"phi": 8, "tribonacci": 8, "binary-golden": 8, "binary-is": 8}
    # the warm-up round is run this often, so set-up does enough work to time
    WARM_REPEAT = 8

    def __init__(self):
        self.phi = check_base("phi")

    def setup(self, nb):
        self.nb = nb
        self.ctx = {b: program_context(nb, b) for b in ("phi", "tribonacci")}
        for ctx in self.ctx.values():
            nb.interval_I(ctx)
            nb.minimal_alphabet(ctx)
            nb.reference_bounds(ctx)

    def contexts(self):
        return self.ctx

    def make_round(self, rng, warm=False):
        """Words drawn at random; the warm-up draws its own."""
        nb = self.nb
        ops = []
        for b in ("phi", "tribonacci"):
            ctx = self.ctx[b]
            for i in range(self.COUNTS[b]):
                pre, per, want = pair_word(rng, b, rng.randrange(50, 90), rng.randrange(3, 13), i % 2 == 0)
                word = nb.DigitString(tuple(nb.PairDigit(*p) for p in pre),
                                      tuple(nb.PairDigit(*p) for p in per))
                cpre, cper = ck.complement_pairs(pre, per, 1)
                mirror = nb.DigitString(tuple(nb.PairDigit(*p) for p in cpre),
                                        tuple(nb.PairDigit(*p) for p in cper))
                n = len(pre) + len(per)
                ops.append(Op("pairs-greedy", b,
                              lambda w=word, c=ctx: nb.is_admissible_greedy(w, c),
                              self._verdict(want), n))
                ops.append(Op("pairs-lazy", b,
                              lambda w=mirror, c=ctx: nb.is_admissible_lazy(w, c),
                              self._verdict(want), n))
        for i in range(self.COUNTS["binary-golden"]):
            pre, per, want = golden_binary_word(rng, rng.randrange(25, 45), rng.randrange(2, 7), i % 2 == 0)
            word = nb.DigitString(pre, per)
            ops.append(Op("binary-golden", "phi",
                          lambda w=word: nb.golden_forbidden_factor_check(w),
                          self._verdict(want), len(pre) + len(per)))
        for i in range(self.COUNTS["binary-is"]):
            pre, per, want = is_binary_word(rng, self.phi, rng.randrange(50, 90), rng.randrange(3, 12), i % 2 == 0)
            word = nb.DigitString(pre, per)
            ops.append(Op("binary-is", "phi",
                          lambda w=word: nb.ito_sadahiro_admissible(w),
                          self._verdict(want), len(pre) + len(per)))
        return ops

    @staticmethod
    def _verdict(want):
        expected = "admissible" if want else "rejected"

        def check(report):
            return None if report.verdict == expected else \
                f"verdict {report.verdict}, the forbidden-string law says {expected}"

        return check


# -- uniqueness --------------------------------------------------------------------------


class Uniqueness:
    """count_representation_branches and extremal_prefix (max and min) at
    depths 12, 14 and 16 for interior points of phi and Tribonacci; the
    endpoints of I; Tribonacci pair words over {1:1, 0:0}, whose values
    are uniquely representable; sample_unique_numbers for 14/5 and 7/2."""

    name = "uniqueness"
    ROUND_SECONDS = 0.25
    WARM_REPEAT = 1
    INTERIOR = {"phi": ((19, 12), (23, 14), (29, 16)),
                "tribonacci": ((19, 12), (23, 14), (29, 16), (31, 16))}
    WARM_INTERIOR = {"phi": ((17, 14),), "tribonacci": ((17, 14), (13, 16))}
    ENDPOINT_DEPTH = 16
    UNIQUE_WORD_DEPTH = 14
    SAMPLE_DEPTH = 12

    def __init__(self):
        self.check = {b: check_base(b) for b in ("phi", "tribonacci", "14_5", "7_2")}
        self.points = {(b, q): numerators(self.check[b], q, "I")
                       for group in (self.INTERIOR, self.WARM_INTERIOR)
                       for b, strata in group.items() for q, _ in strata}

    def setup(self, nb):
        self.nb = nb
        self.ctx = {b: program_context(nb, b) for b in self.check}
        for ctx in self.ctx.values():
            nb.interval_I(ctx)

    def contexts(self):
        return self.ctx

    def _element(self, b, e):
        return self.ctx[b].from_coeffs(self.check[b].f.to_fractions(e))

    def make_round(self, draw, warm=False):
        nb = self.nb
        ops = []
        for b, strata in (self.WARM_INTERIOR if warm else self.INTERIOR).items():
            base = self.check[b]
            for q, depth in strata:
                x = base.f.const(R(draw.sweep((b, q), self.points[b, q]), q))
                xe = self._element(b, x)
                ops.append(Op("count", b, lambda xe=xe, d=depth: nb.count_representation_branches(xe, d),
                              self._count_checker(base, x, depth)))
                for which in ("max", "min"):
                    ops.append(Op("extremal", b,
                                  lambda xe=xe, d=depth, w=which: nb.extremal_prefix(xe, d, w),
                                  self._extremal_checker(base, x, depth, which)))
        for b in () if warm else ("phi", "tribonacci"):
            base = self.check[b]
            for end in (base.l, base.r):
                xe = self._element(b, end)
                d = self.ENDPOINT_DEPTH
                ops.append(Op("count", b, lambda xe=xe, d=d: nb.count_representation_branches(xe, d),
                              self._known_unique()))
                ops.append(Op("extremal", b, lambda xe=xe, d=d: nb.extremal_prefix(xe, d, "max"),
                              self._extremal_checker(base, end, d, "max")))
        base = self.check["tribonacci"]
        for _ in range(3):
            # periods of 2..6 letters in timed rounds, 7..8 in the warm-up
            per = tuple(draw.choice((B, C)) for _ in range(draw.randrange(7, 9) if warm else draw.randrange(2, 7)))
            pre = tuple(draw.choice((B, C)) for _ in range(draw.randrange(0, 4)))
            x = base.value(pre, per, base.beta2, base.pair_value)
            xe = self._element("tribonacci", x)
            d = self.UNIQUE_WORD_DEPTH
            ops.append(Op("count", "tribonacci",
                          lambda xe=xe, d=d: nb.count_representation_branches(xe, d),
                          self._known_unique()))
        for b in ("14_5", "7_2"):
            ctx = self.ctx[b]
            for _ in range(2):
                s = draw.randrange(1 << 30)
                ops.append(Op("sample", b,
                              lambda ctx=ctx, s=s: nb.sample_unique_numbers(
                                  ctx, word_length=6, samples=1, depth=self.SAMPLE_DEPTH, seed=s),
                              self._sample_checker(self.check[b])))
        return ops

    @staticmethod
    def _count_checker(base, x, depth):
        def check(count):
            want = len(base.prefixes(x, depth))
            return None if count == want else f"{count} branches, brute force finds {want}"
        return check

    @staticmethod
    def _extremal_checker(base, x, depth, which):
        def check(prefix):
            # extremality: the alternate-order maximum (minimum) prefix is
            # the greedy (lazy) prefix
            want, _ = base.alternating(x, which == "max", depth=depth)
            return None if tuple(prefix) == want else f"{which} prefix is not the extremal one"
        return check

    @staticmethod
    def _known_unique():
        def check(count):
            return None if count == 1 else f"{count} branches at a uniquely representable point"
        return check

    def _sample_checker(self, base):
        F = base.f

        def check(samples):
            for s in samples:
                if s.branch_count != 1:
                    return f"sample with {s.branch_count} branches"
                pre, per = tuple(s.word.preperiod), tuple(s.word.period)
                if any(not 0 <= d <= base.fb for d in pre + per):
                    return "digit outside the alphabet"
                x = F.from_fractions(s.value.coeffs)
                if not base.represents(x, pre, per, base.minus_beta, base.neg_digit_value):
                    return "sample value differs from its word's value"
                if len(base.prefixes(x, self.SAMPLE_DEPTH)) != 1:
                    return "sample point is not uniquely representable"
            return None

        return check


# -- cli ------------------------------------------------------------------------------


class Cli:
    """A fixed list of `negabase ... --json` commands over phi, Tribonacci,
    rt3, 14/5 and 7/4 covering all six subcommands, one process at a time,
    with seeded points and words.  Two commands are fixed: the trigger-free
    7/4 admissibility query (slow reference bounds) and `expand --base 7/4
    --x 1/4`, which exits 2 instead of 3 and counts as failed."""

    name = "cli"
    ROUND_SECONDS = 19.0
    PERIODIC_Q = {"phi": (13, 17, 23), "tribonacci": (7, 9, 17), "rt3": (7, 14, 27)}
    BRANCH_Q = {"phi": (19, 29), "tribonacci": (19, 23), "rt3": (11, 13), "14_5": (7, 9), "7_4": (7, 9)}
    WARM_POINTS = (("phi", 11, "IS"), ("tribonacci", 17, "I"))
    FIXED_DEPTH = {"14_5": 20, "7_4": 30}

    def __init__(self, root):
        self.root = root
        self.check = {b: check_base(b) for b in CLI_BASE}
        self.points = {}
        for b, qs in self.PERIODIC_Q.items():
            for q in qs:
                self.points[b, q, "IS"] = numerators(self.check[b], q, "IS")
        for b, qs in self.BRANCH_Q.items():
            for q in qs:
                self.points[b, q, "I"] = numerators(self.check[b], q, "I")
        for b, q, domain in self.WARM_POINTS:
            self.points[b, q, domain] = numerators(self.check[b], q, domain)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.launcher = [sys.executable, "-m", "negabase.cli"]

    def setup(self):
        import compileall
        compileall.compile_dir(os.path.join(self.root, "src", "negabase"), quiet=1)

    def warm_commands(self, draw):
        cmds = []
        x = R(draw.choice(self.points["phi", 11, "IS"]), 11)
        cmds.append(self._expand("phi", x, "greedy"))
        cmds.append(self._branches("tribonacci", R(draw.choice(self.points["tribonacci", 17, "I"]), 17), 8))
        pre, per, _ = is_binary_word(draw, self.check["phi"], 10, 4, True)
        cmds.append(self._binary("binary-is", pre, per))
        return cmds

    def run(self, argv):
        p = subprocess.run(self.launcher + argv, env=self.env,
                           capture_output=True, text=True, cwd=self.root)
        return p.returncode, p.stdout, p.stderr

    def make_round(self, draw, warm=False):
        cmds = self.warm_commands(draw) if warm else self._commands(draw)
        return [Op(kind, base, lambda a=argv: self.run(a), check)
                for kind, base, argv, check in cmds]

    def _commands(self, rng):
        cmds = []
        for b, qs in self.PERIODIC_Q.items():
            for kind in Expand.KINDS:
                for q in qs:
                    cmds.append(self._expand(b, R(rng.choice(self.points[b, q, "IS"]), q), kind))
            for q in qs:
                cmds.append(self._compare(b, R(rng.choice(self.points[b, q, "IS"]), q)))
        for b, qs in self.BRANCH_Q.items():
            for q in qs:
                cmds.append(self._branches(b, R(rng.choice(self.points[b, q, "I"]), q), 10 if b != "14_5" else 8))
            cmds.append(self._alphabet(b))
        for b, depth in self.FIXED_DEPTH.items():
            for q in self.BRANCH_Q[b]:
                x = R(rng.choice(self.points[b, q, "I"]), q)
                for kind in ("greedy", "lazy"):
                    cmds.append(self._expand(b, x, kind, depth))
        for _ in range(2):
            cmds.append(self._unique("14_5", 10, rng.randrange(2, 5)))
        for b in ("phi", "tribonacci"):
            for i in range(6):
                pre, per, _ = pair_word(rng, b, rng.randrange(8, 20), rng.randrange(2, 6), i % 2 == 0)
                level = "pairs-greedy" if i < 3 else "pairs-lazy"
                cmds.append(self._pairs(b, pre, per, level))
        for i in range(6):
            pre, per, _ = golden_binary_word(rng, rng.randrange(10, 20), rng.randrange(2, 5), i % 2 == 0)
            cmds.append(self._binary("binary-golden", pre, per))
            pre, per, _ = is_binary_word(rng, self.check["phi"], rng.randrange(10, 20), rng.randrange(2, 6), i % 2 == 0)
            cmds.append(self._binary("binary-is", pre, per))
        cmds.append(self._pairs("7_4", (A,), (C,), "pairs-greedy", expect_by_value=True))
        cmds.append(self._period_not_found("7_4", R(1, 4)))
        return cmds

    # each builder returns (kind, base, argv, check(result)) ---------------------

    def _report(self, result, want_exit=0):
        code, out, err = result
        if code != want_exit:
            raise Failed(f"exit {code}: {(err or out).strip()[-300:]}")
        try:
            return json.loads(out)
        except ValueError:
            raise Failed("stdout is not a JSON report") from None

    def _expand(self, b, x, kind, depth=None):
        base = self.check[b]
        argv = ["expand", "--base", CLI_BASE[b], "--x", str(x), "--kind", kind, "--json"]
        if depth is not None:
            argv[-1:-1] = ["--depth", str(depth)]

        def check(result):
            rep = self._report(result)
            xe = base.f.const(x)
            got = ck.parse_word(rep["result"]["word"], pair=kind.startswith("beta2"))
            if depth is None:
                if rep["status"] != "OK" or rep["round_trip"] is not True:
                    return "status or round trip not OK"
                if kind == "is":
                    want = base.ito_sadahiro(xe)
                else:
                    want = base.alternating(xe, kind.endswith("greedy"))
                if kind.startswith("beta2"):
                    got = ck.psi(*got)
                return None if ck.canonical(*got) == want else f"{kind} word differs"
            want = base.alternating(xe, kind == "greedy", depth=depth)
            return None if got == want else f"depth-{depth} {kind} word differs"

        return "expand", b, argv, check

    def _compare(self, b, x):
        base = self.check[b]
        argv = ["compare", "--base", CLI_BASE[b], "--x", str(x), "--json"]

        def check(result):
            rep = self._report(result)
            xe = base.f.const(x)
            want = {"greedy": base.alternating(xe, True), "lazy": base.alternating(xe, False),
                    "ito_sadahiro": base.ito_sadahiro(xe)}
            for k, w in want.items():
                if ck.canonical(*ck.parse_word(rep["expansions"][k]["word"])) != w:
                    return f"{k} word differs"
            text = {-1: "LT", 0: "EQ", 1: "GT"}
            order = rep["alternate_order"]
            if order["lazy_vs_is"] != text[ck.alt_cmp(want["lazy"], want["ito_sadahiro"])] or \
                    order["is_vs_greedy"] != text[ck.alt_cmp(want["ito_sadahiro"], want["greedy"])]:
                return "alternate-order verdicts differ"
            return None

        return "compare", b, argv, check

    def _branches(self, b, x, depth):
        base = self.check[b]
        argv = ["branches", "--base", CLI_BASE[b], "--x", str(x), "--depth", str(depth), "--json"]

        def check(result):
            rep = self._report(result)
            want = base.prefixes(base.f.const(x), depth)
            got = [ck.parse_word(p)[0] for p in rep["prefixes"]]
            if rep["count"] != len(want) or sorted(got) != sorted(want):
                return "prefixes differ from brute force"
            for u, v in zip(got, got[1:]):
                if ck.alt_cmp((u, ()), (v, ())) >= 0:
                    return "prefixes not in alternate order"
            return None

        return "branches", b, argv, check

    def _alphabet(self, b):
        base = self.check[b]
        argv = ["alphabet", "--base", CLI_BASE[b], "--json"]

        def check(result):
            rep = self._report(result)
            F, fb = base.f, base.fb
            pairs = [(bb, a) for bb in range(fb + 1) for a in range(fb + 1)]
            pairs.sort(key=lambda p: (-p[0], p[1]))
            threshold = F.mul(F.beta(), F.sub(F.beta(), F.const(fb)))
            greedy = [p for p in pairs if p[0] >= 1 or F.cmp(threshold, F.const(p[1])) > 0]
            lazy = [(fb - p[0], fb - p[1]) for p in reversed(greedy)]
            full = F.sign(F.sub(base.beta2, F.add(F.mul_int(F.beta(), fb), F.const(fb)))) > 0
            text = lambda ps: [f"{p[0]}:{p[1]}" for p in ps]
            if rep["greedy_alphabet"] != text(greedy) or rep["lazy_alphabet"] != text(lazy) \
                    or rep["full"] != full:
                return "alphabet differs from the paper's formula"
            return None

        return "alphabet", b, argv, check

    def _unique(self, b, depth, samples):
        base = self.check[b]
        argv = ["unique", "--base", CLI_BASE[b], "--depth", str(depth),
                "--samples", str(samples), "--json"]

        def check(result):
            rep = self._report(result)
            if len(rep["samples"]) != samples or not rep["all_unique_at_depth"]:
                return "samples missing or not unique"
            for s in rep["samples"]:
                pre, per = ck.parse_word(s["word"])
                x = base.f.from_fractions([R(c) for c in s["value"]])
                if s["branch_count"] != 1 or len(base.prefixes(x, depth)) != 1:
                    return "sample is not uniquely representable"
                if not base.represents(x, pre, per, base.minus_beta, base.neg_digit_value):
                    return "sample value differs from its word's value"
            return None

        return "unique", b, argv, check

    def _pairs(self, b, pre, per, level, expect_by_value=False):
        base = self.check[b]
        text = lambda part: ".".join(f"{p[0]}:{p[1]}" for p in part)
        if level == "pairs-lazy":
            shown = ck.complement_pairs(pre, per, base.fb)
        else:
            shown = (pre, per)
        word = f"{text(shown[0])}({text(shown[1])})"
        argv = ["admissible", "--base", CLI_BASE[b], "--pairs", word, "--level", level, "--json"]

        def check(result):
            rep = self._report(result)
            if expect_by_value:
                # the word must be the greedy expansion of its own value
                x = base.value(pre, per, base.beta2, base.pair_value)
                want = ck.psi(pre, per) == base.alternating(x, True)
            else:
                want = ck.greedy_law(b, pre, per)
            expected = "admissible" if want else "rejected"
            return None if rep["verdict"] == expected else f"verdict {rep['verdict']}, expected {expected}"

        return "admissible", b, argv, check

    def _binary(self, level, pre, per):
        digits = lambda part: "".join(str(d) for d in part)
        argv = ["admissible", f"--{level}", f"{digits(pre)}({digits(per)})", "--json"]
        phi = self.check["phi"]

        def check(result):
            rep = self._report(result)
            if level == "binary-golden":
                want = ck.golden_binary_law(pre, per)
            else:
                want = ck.ito_sadahiro_law(phi, pre, per)
            expected = "admissible" if want else "rejected"
            return None if rep["verdict"] == expected else f"verdict {rep['verdict']}, expected {expected}"

        return "admissible", "phi", argv, check

    def _period_not_found(self, b, x):
        argv = ["expand", "--base", CLI_BASE[b], "--x", str(x), "--json"]

        def check(result):
            # documented outcome: exit 3 with a PERIOD_NOT_FOUND report
            rep = self._report(result, want_exit=3)
            return None if rep["status"] == "PERIOD_NOT_FOUND" else f"status {rep['status']}"

        return "expand", b, argv, check


WORKLOADS = {"expand": Expand, "admissibility": Admissibility,
             "uniqueness": Uniqueness, "cli": Cli}


GOLDEN = (sqrt(5) - 1) / 2


class Draw(random.Random):
    """The random inputs of round r of a workload for a seed.

    `sweep` picks a point from a stratum by the golden-ratio sequence
    start + r * 0.618... (mod 1) with a seeded start, so the points of
    successive rounds spread evenly over the stratum and two seeds time
    nearly the same population of points.  The warm-up draws come from
    `Draw(workload, "warm", r)` and use strata of their own."""

    def __init__(self, workload, seed, r):
        super().__init__(f"{workload}:{seed}:{r}")
        self.workload, self.seed, self.r = workload, seed, r

    def sweep(self, key, items):
        start = random.Random(f"{self.workload}:{self.seed}:{key}").random()
        return items[int(len(items) * ((start + self.r * GOLDEN) % 1.0))]
