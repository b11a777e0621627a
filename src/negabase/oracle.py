"""Brute-force ground truth for negative-base representations.

Walks the digit prefixes of a point that can be extended to a full
representation.  A digit a is usable at remainder y exactly when
-beta*y - a lands back in the representable interval, and because that
interval is precisely the set of representable numbers, staying inside
it certifies extendability.  This turns the infinite-future question
into a one-step test, the same one the greedy/lazy algorithms use; the
walk keeps every usable digit instead of choosing one, which makes it an
oracle for their digit choices and for uniqueness experiments.

The test is the oracle's own, not the squared-base tilings it checks:
every digit is tested against I.  The walk is schemes._children's, compiled
once per degree on the orbit kernel's integer states: one call runs every
level, and a node's bounds keep one range of digits on every alphabet and
decide l and r by the kernel's rule: 64-bit bounds, then a tie on the
integer vectors, then the exact test.  The loop counts its ties itself, and
every walk and descent enters through one guard, schemes._walked: the depth
and domain checks, and the ties added to kernel_tie_count() once per call.

Counts and the listing are brute force over the distinct remainders of
each level: equal-length prefixes that reach one remainder share their
extensions, so the walk keeps each remainder's count of prefixes, and the
listing links its prefixes from the walk's edges (enumerate_prefixes, whose
budget counts prefixes, not nodes).  Extremal prefixes need no search: the
alternate order is lexicographic with odd places reversed and every
remainder in I has a feasible child, so they come from the compiled
descent, the alternating one-step choice run in one loop on the walk's own
digit test.
"""

from .field import FieldError, context_cached
from .schemes import _walked, eval_neg_beta
from .words import DigitString, _Record, alt_sort_key

DEFAULT_NODE_BUDGET = 500_000
MAX_WORD_LENGTH = 4096   # a sampled period's exact value costs superlinear time


class BranchBudgetError(RuntimeError):
    """The walk grew past the configured node budget."""


def _walk(x, depth, node_budget, levels=None):
    """The last level of schemes._children's walk from x, {vector: prefixes}
    over one denominator, through schemes._walked's guard.  The budget counts
    (state, digit) nodes, each as 1, or with `levels` (each level's (v, a, w)
    edges) as the prefixes it carries.  A budget below 1 is refused first."""
    if node_budget < 1:
        raise ValueError("node_budget must be at least 1")
    level = _walked(x, depth, 0, node_budget, levels)
    if level is None:
        raise BranchBudgetError(f"more than {node_budget} branch nodes at depth {depth}")
    return level


def enumerate_prefixes(x, depth, node_budget=DEFAULT_NODE_BUDGET):
    """All length-`depth` digit prefixes of representations of x, sorted
    by the alternate order.  Each remainder keeps the prefixes that reach
    it, as (digit, parent) links shared between levels, built from the
    walk's edges; the budget counts every prefix of every length."""
    levels = []
    _walk(x, depth, node_budget, levels)
    links = {x.num: [()]}
    for edges in levels:
        nxt = {}
        for v, a, w in edges:
            nxt.setdefault(w, []).extend([(a, link) for link in links[v]])
        links = nxt
    prefixes = []
    for chains in links.values():
        for link in chains:
            p = []
            while link:
                a, link = link
                p.append(a)
            prefixes.append(tuple(reversed(p)))
    return sorted(prefixes, key=alt_sort_key)


def count_representation_branches(x, depth, node_budget=DEFAULT_NODE_BUDGET):
    """Number of extendable depth-`depth` prefixes, added up per remainder;
    1 is (necessary) evidence that x is uniquely representable."""
    return sum(_walk(x, depth, node_budget).values())


def extremal_prefix(x, depth, which="max"):
    """The alternate-order maximal (or minimal) extendable prefix; the
    maximum matches the greedy digits, the minimum the lazy ones.  It takes
    the smallest (largest) feasible digit at the first place and switches
    ends at every place: one path of `depth` steps, no search."""
    if which not in ("max", "min"):
        raise ValueError("which must be 'max' or 'min'")
    return tuple(_walked(x, depth, 1, 0 if which == "max" else -1)[0])


class UniqueSample(_Record):
    """One candidate uniquely-representable number: its periodic digit
    word, exact value, and the branch count observed at the probe depth."""

    __slots__ = _fields = ("word", "value", "branch_count")

    @property
    def unique_at_depth(self):
        return self.branch_count == 1


@context_cached
def _past_one_plus_sqrt3(ctx):
    """Whether beta > 1 + sqrt(3), that is beta^2 > 2*beta + 2: once per context."""
    return (ctx.beta() * ctx.beta()).compare(2 * ctx.beta() + 2) > 0


def sample_unique_numbers(ctx, word_length=6, samples=10, depth=10,
                          seed=20260401, node_budget=DEFAULT_NODE_BUDGET):
    """Deterministic sample of numbers with (evidence of) a unique
    representation, for bases beyond the square-root-of-three threshold.

    For floor(beta) >= 3 the words avoid the digits 0 and floor(beta);
    for smaller such bases they are built from the three middle pair
    digits -beta, -beta+1, -beta+2 of the squared-base alphabet.  Every
    returned value is checked by count_representation_branches.
    """
    if not _past_one_plus_sqrt3(ctx):
        raise FieldError("unique-representation sampling needs beta > 1 + sqrt(3)")
    for name, n in (("samples", samples), ("word_length", word_length)):
        if n < 1:
            raise ValueError(f"{name} must be at least 1")
    if word_length > MAX_WORD_LENGTH:
        raise ValueError(f"word_length must be at most {MAX_WORD_LENGTH}")
    import random   # here, not at the top: no other command needs it at start-up
    fb = ctx.floor_beta
    rng = random.Random(seed)
    out = []
    for _ in range(samples):
        if fb >= 3:
            digits = tuple(rng.randint(1, fb - 1) for _ in range(word_length))
        else:   # the pairs 1:0, 1:1 and 1:2, read as letters
            digits = tuple(c for _ in range(word_length) for c in (1, rng.randint(0, 2)))
        word = DigitString.periodic((), digits)
        value = eval_neg_beta(ctx, word)
        count = count_representation_branches(value, depth, node_budget)
        out.append(UniqueSample(word, value, count))
    return out
