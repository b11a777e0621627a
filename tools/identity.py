"""Identity sweep: hash the library's results per base and kind.

Run it on two trees and diff the outputs; equal files mean the two trees
give the same words, statuses, round trips, step digits, oracle results
and fallback counts on every input below, kind by kind.

    python3 tools/identity.py --out FILE

The package is imported from the `src` directory next to this script, so
the same script runs unchanged on any checkout that has these functions.
Each output line is
`base kind records sha256 fallbacks kernel_fallbacks kernel_ties`: how far
the context's `fallback_count()`, `kernel_fallback_count()` and
`kernel_tie_count()` rose while that kind's records were made, the last
reading 0 on a checkout without `kernel_tie_count`.  A `base set-up` line
gives the rise while the schemes and points were built, before the first
record.

Inputs, for each of 13 bases: l, r, every end of a digit subinterval,
every beta^2 breakpoint and every p/q in I with q <= 15.  Per point:
greedy, lazy, Ito-Sadahiro, both beta^2 schemes, the positive scheme and
the restricted scheme at depths 1, 7 and 30 and by period at budgets
299-301, with the round trip of every word that closed its period; both
step digits with their remainders and `feasible_digits`; and, for the
first 40 points and every point with q <= 7, `enumerate_prefixes`,
`count_representation_branches` and both `extremal_prefix` at depths
8-10.  Admissibility, for each base: 150 seeded pair words over the
minimal greedy alphabet, most of them built from critical digits each
followed by a piece of its reference bound, sometimes all of a bound cut
by its budget; the greedy check on each word and the lazy check on its
complement, against the reference bounds at budgets 299-301.  On phi
also both binary checks on every finite and every eventually periodic
binary word of at most 10 letters.  A report is recorded as its verdict
and the rule, position and factor of its violation.  An error is
recorded as its class and text.
"""

import argparse
import hashlib
import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import negabase as nb  # noqa: E402

BASES = {
    "phi": ((-1, -1, 1), 1, 2),
    "tribonacci": ((-1, -1, -1, 1), 1, 2),
    "rt3": ((-2, -2, 1), Fraction(27, 10), Fraction(28, 10)),
    "tetranacci": ((-1, -1, -1, -1, 1), 1, 2),
    "reducible": ((-1, -1, 0, -1, 1), 1, 2),
    "cubic": ((-1, 0, -3, 1), 3, 4),
    "sqrt3": ((-3, 0, 1), 1, 2),
    "non-monic": ((-1, -3, 2), 1, 2),
    "7_4": ((-7, 4), 1, 2),
    "14_5": ((-14, 5), 2, 3),
    "7_2": ((-7, 2), 3, 4),
    "10_3": ((-10, 3), 3, 4),
    "5_2": ((-5, 2), 2, 3),
}
DEPTHS = (1, 7, 30)
BUDGETS = (299, 300, 301)
ORACLE_DEPTHS = (8, 9, 10)
ORACLE_POINTS, ORACLE_DEN = 40, 7
MAX_DEN = 15
PAIR_WORDS, BINARY_LENGTH = 150, 10


def attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:   # an error is a result like any other
        return f"{type(exc).__name__}: {exc}"


def points(ctx):
    I = nb.interval_I(ctx)
    xs = [I.lo, I.hi]
    for a in range(ctx.floor_beta + 1):
        iv = nb.digit_subinterval(ctx, a)
        xs += [iv.lo, iv.hi]
    pairs = nb.all_pair_digits(ctx)
    xs += [nb.greedy_breakpoint(ctx, p) for p in pairs]
    xs += [nb.lazy_breakpoint(ctx, p) for p in pairs]
    for q in range(1, MAX_DEN + 1):
        for p in range(-3 * q, 3 * q + 1):
            if Fraction(p, q).denominator == q:
                xs.append(ctx.element(Fraction(p, q)))
    seen, out = set(), []
    for x in xs:
        key = (x.num, x.den)
        if key not in seen and I.contains(x):
            seen.add(key)
            out.append(x)
    return out


def expansion(exp, round_trip):
    """The word, status and endpoint, and whether a closed word evaluates
    back to its point."""
    if isinstance(exp, str):
        return exp
    back = round_trip(exp.word) if exp.ok and exp.word.period else None
    return f"{exp.word} {exp.status} {exp.endpoint} {back}"


def setup(ctx):
    """The schemes and the points of the sweep."""
    schemes = {
        "is": nb.build_ito_sadahiro_scheme(ctx),
        "beta2-greedy": nb.build_beta2_scheme(ctx, "greedy"),
        "beta2-lazy": nb.build_beta2_scheme(ctx, "lazy"),
        "positive": nb.build_positive_greedy_scheme(ctx),
        "restricted": attempt(nb.restricted_scheme, ctx),
    }
    return schemes, points(ctx)


def sweep(ctx, schemes, xs):
    """(kind, record) pairs for every input of the base."""
    minus_beta = -ctx.beta()
    for i, x in enumerate(xs):
        text = x.as_text()
        for kind, fn in (("greedy", nb.greedy_neg_beta), ("lazy", nb.lazy_neg_beta)):
            def back(word):
                return nb.eval_digits(word, minus_beta) == x
            for depth in DEPTHS:
                yield kind, f"{text} d{depth} {expansion(attempt(fn, x, depth), back)}"
            for budget in BUDGETS:
                yield kind, f"{text} b{budget} {expansion(attempt(fn, x, None, budget), back)}"
        for kind, scheme in schemes.items():
            if isinstance(scheme, str):
                yield kind, scheme
                continue
            value = {c.digit: c.value for c in scheme.cells}.__getitem__

            def back(word):
                return nb.eval_digits(word, scheme.base, value) == x
            for depth in DEPTHS:
                exp = attempt(nb.run_scheme, scheme, x, depth)
                yield kind, f"{text} d{depth} {expansion(exp, back)}"
            for budget in BUDGETS:
                exp = attempt(nb.run_scheme, scheme, x, None, budget)
                yield kind, f"{text} b{budget} {expansion(exp, back)}"
        for kind, fn in (("step-min", nb.step_min_digit), ("step-max", nb.step_max_digit)):
            r = attempt(fn, x)
            yield kind, f"{text} {r if isinstance(r, str) else (r[0], r[1].num, r[1].den)}"
        yield "feasible", f"{text} {attempt(nb.feasible_digits, x)}"
        if i < ORACLE_POINTS or x.den <= ORACLE_DEN:
            for depth in ORACLE_DEPTHS:
                yield "prefixes", f"{text} {depth} {attempt(nb.enumerate_prefixes, x, depth)}"
                yield "count", f"{text} {depth} {attempt(nb.count_representation_branches, x, depth)}"
                for which in ("max", "min"):
                    r = attempt(nb.extremal_prefix, x, depth, which)
                    yield f"extremal-{which}", f"{text} {depth} {r}"


def pair_words(ctx, rng):
    """Seeded pair words over the minimal greedy alphabet: pieces that are
    one letter, or a critical digit and a prefix of the bound that follows
    it, so that the checks reject, accept and run past a bound cut by its
    budget."""
    alpha = nb.minimal_alphabet(ctx)
    bounds = nb.reference_bounds(ctx, BUDGETS[1])
    mids = [p for p in alpha.greedy if p.b >= 1 and p.a == ctx.floor_beta]

    def piece():
        if rng.random() < 0.4:
            return [rng.choice(alpha.greedy)]
        crit = rng.choice([alpha.max_greedy] + mids)
        bound = (bounds.top if crit == alpha.max_greedy else bounds.mid).word
        n = rng.randrange(0, 45) if rng.random() < 0.8 else 400   # 400: all of a cut bound
        return [crit, *bound.prefix(n if bound.period else min(n, len(bound)))]

    for _ in range(PAIR_WORDS):
        pre = [d for _ in range(rng.randrange(0, 4)) for d in piece()]
        per = [d for _ in range(rng.randrange(0, 3)) for d in piece()]
        yield nb.DigitString(tuple(pre), tuple(per))


def binary_words(max_total):
    """Every finite and every eventually periodic binary word of at most
    `max_total` letters, each once."""
    words = {}
    for total in range(max_total + 1):
        for bits in itertools.product((0, 1), repeat=total):
            words.setdefault(nb.DigitString.finite(bits))
            for cut in range(total):
                words.setdefault(nb.DigitString(bits[:cut], bits[cut:]))
    return list(words)


def verdict(report):
    """A report as its verdict and its violation's rule, position and
    factor; an error as its text."""
    if isinstance(report, str):
        return report
    v = report.violation
    return report.verdict if v is None else f"{report.verdict} {v.rule} {v.position} {v.factor}"


def admissibility(name, ctx):
    """(kind, record) pairs for the admissibility checks on the base."""
    words = attempt(lambda: list(pair_words(ctx, random.Random(name))))
    if isinstance(words, str):
        yield "admissible-greedy", words
        words = ()
    for w in words:
        mirror = nb.complement_pairs(w, ctx.floor_beta)
        for budget in BUDGETS:
            bounds = nb.reference_bounds(ctx, budget)
            r = attempt(nb.is_admissible_greedy, w, ctx, bounds)
            yield "admissible-greedy", f"{w} b{budget} {verdict(r)}"
            r = attempt(nb.is_admissible_lazy, mirror, ctx, bounds)
            yield "admissible-lazy", f"{mirror} b{budget} {verdict(r)}"
    if name == "phi":
        for w in binary_words(BINARY_LENGTH):
            yield "binary-golden", f"{w} {verdict(attempt(nb.golden_forbidden_factor_check, w))}"
            yield "binary-is", f"{w} {verdict(attempt(nb.ito_sadahiro_admissible, w))}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="file for the hashes")
    args = ap.parse_args(argv)
    lines = []
    for name, (poly, lo, hi) in BASES.items():
        ctx = nb.field_from_poly(poly, lo, hi)

        ties = getattr(ctx, "kernel_tie_count", lambda: 0)

        def counters():
            return ctx.fallback_count(), ctx.kernel_fallback_count(), ties()

        before = counters()
        schemes, xs = setup(ctx)
        last = counters()
        lines.append(" ".join(map(str, (name, "set-up", *(y - x for x, y in zip(before, last))))))
        hashes, counts, rises = {}, {}, {}
        # the work between two records is the later record's
        for kind, record in itertools.chain(sweep(ctx, schemes, xs), admissibility(name, ctx)):
            hashes.setdefault(kind, hashlib.sha256()).update(record.encode() + b"\n")
            counts[kind] = counts.get(kind, 0) + 1
            now = counters()
            so_far = rises.get(kind, (0, 0, 0))
            rises[kind] = tuple(r + y - x for r, x, y in zip(so_far, last, now))
            last = now
        lines += [" ".join(map(str, (name, kind, counts[kind], h.hexdigest(), *rises[kind])))
                  for kind, h in hashes.items()]
    Path(args.out).write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
