"""Command-line front end.

Subcommands: expand, admissible, alphabet, unique, branches, compare.
Output is human text by default or a self-describing JSON report with
--json; exact values are always serialized as rational coefficient
vectors, never as floats.

Each handler returns (status, fields, lines); `_run` alone writes the
envelope.  A JSON report begins `schema`, `command`, `status`, `base`
(then `interval`, `x` where there is an --x); an error document is
exactly `schema`, `command`, `status` ("ERROR"), `error`.  Text ends in
`status: X` when X is not OK.  Exit codes (`_EXIT`): 0 for OK, 2 on
parse or domain errors, 3 when a result is UNDECIDED or a period was
not found within the orbit budget; 1 when standard output is closed
before the report (or --help) is written.
"""

import argparse
import json
import os
import re
import sys

from .admissibility import (UNDECIDED, golden_forbidden_factor_check,
                            is_admissible_greedy, is_admissible_lazy,
                            ito_sadahiro_admissible, minimal_alphabet,
                            reference_bounds)
from .field import phi_field
from .oracle import (DEFAULT_NODE_BUDGET, BranchBudgetError, enumerate_prefixes,
                     sample_unique_numbers)
from .schemes import (DEFAULT_ORBIT_BUDGET, DomainError, Expansion,
                      build_ito_sadahiro_scheme, eval_beta2_pairs,
                      eval_neg_beta, greedy_neg_beta, interval_I,
                      lazy_neg_beta, run_scheme)
from .syntax import ParseError, coeff_vector, parse_base, parse_element
from .words import DigitString, _code, _compare_tail, format_word, parse_word, psi_inverse

SCHEMA_VERSION = 1

_EXIT = {"OK": 0, "ERROR": 2, "UNDECIDED": 3, "PERIOD_NOT_FOUND": 3}


def _budget(name, default):
    try:
        value = int(os.environ.get(name, default))
    except ValueError:
        value = 0
    if value < 1:
        raise ParseError(f"{name} must be a positive integer, got {os.environ[name]!r}")
    return value


def _orbit_budget():
    return _budget("NEGABASE_ORBIT_BUDGET", DEFAULT_ORBIT_BUDGET)


def _bounded_depth(depth, budget):
    if depth is not None and depth > budget:
        raise ParseError(f"--depth {depth} is above the orbit budget {budget} "
                         f"(NEGABASE_ORBIT_BUDGET)")
    return depth


def _node_budget():
    return _budget("NEGABASE_NODE_BUDGET", DEFAULT_NODE_BUDGET)


def _base_info(text, ctx):
    lo, hi = ctx.isolating_interval
    return {
        "text": text,
        "min_poly": list(ctx.min_poly),
        "isolating_interval": [str(lo), str(hi)],
        "floor": ctx.floor_beta,
    }


def _point(args):
    """The context and point of --base and --x, with the report's `base`,
    `interval` and `x` fields."""
    ctx = parse_base(args.base)
    x = parse_element(args.x, ctx)
    I = interval_I(ctx)
    return ctx, x, {
        "base": _base_info(args.base, ctx),
        "interval": {"l": coeff_vector(I.lo), "r": coeff_vector(I.hi)},
        "x": {"text": args.x, "coeffs": coeff_vector(x)},
    }


def _expansion_info(exp):
    word = exp.word
    return {
        "word": format_word(word),
        "preperiod_length": len(word.preperiod),
        "period_length": len(word.period) or None,
        "status": "OK" if exp.ok else "PERIOD_NOT_FOUND",
        "endpoint": exp.endpoint,
    }


# -- commands -------------------------------------------------------------------


def _cmd_expand(args):
    ctx, x, fields = _point(args)
    budget = _orbit_budget()
    depth = _bounded_depth(args.depth, budget)
    kind = args.kind
    evaluate = eval_neg_beta
    if kind == "is":
        exp = run_scheme(build_ito_sadahiro_scheme(ctx), x, depth, budget)
    else:   # the theorem: a beta2-* word is the greedy or lazy word read in pairs
        n = 2 if kind.startswith("beta2-") else 1
        expand = greedy_neg_beta if kind.endswith("greedy") else lazy_neg_beta
        exp = expand(x, None if depth is None else n * depth, n * budget)
        if n == 2:
            exp = Expansion(psi_inverse(exp.word), exp.status, exp.endpoint)
            evaluate = eval_beta2_pairs
    evaluated = round_trip = None
    if exp.ok:
        # a prefix cut off by the orbit budget is not a value of x; its
        # exact value can be too long to print
        value = evaluate(ctx, exp.word)
        evaluated, round_trip = coeff_vector(value), value == x
    info = _expansion_info(exp)
    fields |= {
        "kind": kind,
        "result": info,
        "evaluated": evaluated,
        "round_trip": round_trip,
    }
    lines = [
        f"{kind}({args.x}) in base {args.base}: {info['word']}",
        f"  preperiod {info['preperiod_length']}, period {info['period_length']},"
        f" status {info['status']}",
    ]
    if exp.ok:
        lines.append(f"  round-trip exact: {'yes' if round_trip else 'no'}")
    return info["status"], fields, lines


_VERDICT_TEXT = {True: "ACCEPT", False: "REJECT"}


def _cmd_admissible(args):
    if args.pairs is not None:
        if args.base is None:
            raise ParseError("--pairs needs --base")
        ctx = parse_base(args.base)
        word = parse_word(args.pairs, pair=True)
        level = args.level or "pairs-greedy"
        check = is_admissible_lazy if level == "pairs-lazy" else is_admissible_greedy
        rep = check(word, ctx, reference_bounds(ctx, _orbit_budget()))
        base_info = _base_info(args.base, ctx)
        word_text = format_word(word, pair=True)
    else:
        if args.level is not None:
            raise ParseError("--level applies only to --pairs words")
        ctx = phi_field()
        # x^2 - x - 1 has one root above 1, whatever bracket holds it
        if args.base is not None and parse_base(args.base).min_poly != ctx.min_poly:
            raise ParseError("binary admissibility checks are golden-ratio presets")
        base_info = _base_info("phi", ctx)
        if args.binary_golden is not None:
            word = parse_word(args.binary_golden)
            level = "binary-golden"
            rep = golden_forbidden_factor_check(word)
        else:
            word = parse_word(args.binary_is)
            level = "binary-is"
            rep = ito_sadahiro_admissible(word)
        word_text = format_word(word)
    status = "UNDECIDED" if rep.verdict == UNDECIDED else "OK"
    fields = {
        "base": base_info,
        "level": level,
        "word": word_text,
        "verdict": rep.verdict,
        "accepted": rep.ok,
        "violation": None if rep.violation is None else {
            "rule": rep.violation.rule,
            "position": rep.violation.position,
            "factor": rep.violation.factor,
        },
    }
    head = "UNDECIDED" if status == "UNDECIDED" else _VERDICT_TEXT[rep.ok]
    lines = [f"{head}: {word_text} ({level}, verdict {rep.verdict})"]
    if rep.violation is not None:
        v = rep.violation
        lines.append(f"  {v.rule} rule fails at position {v.position}: {v.factor}")
    return status, fields, lines


def _cmd_alphabet(args):
    ctx = parse_base(args.base)
    alpha = minimal_alphabet(ctx)
    fields = {
        "base": _base_info(args.base, ctx),
        "greedy_alphabet": [p.text() for p in alpha.greedy],
        "lazy_alphabet": [p.text() for p in alpha.lazy],
        "max_greedy": alpha.max_greedy.text(),
        "min_lazy": alpha.min_lazy.text(),
        "full": alpha.full,
        "pair_count": (ctx.floor_beta + 1) ** 2,
    }
    lines = [
        f"greedy alphabet: {' '.join(fields['greedy_alphabet'])}"
        f" (max {fields['max_greedy']})",
        f"lazy alphabet:   {' '.join(fields['lazy_alphabet'])}"
        f" (min {fields['min_lazy']})",
        f"uses all {fields['pair_count']} pair digits: {'yes' if alpha.full else 'no'}",
    ]
    return "OK", fields, lines


def _cmd_unique(args):
    ctx = parse_base(args.base)
    records = sample_unique_numbers(ctx, word_length=args.length,
                                    samples=args.samples, depth=args.depth,
                                    node_budget=_node_budget())
    all_unique = all(r.branch_count == 1 for r in records)
    fields = {
        "base": _base_info(args.base, ctx),
        "depth": args.depth,
        "samples": [
            {
                "word": format_word(r.word),
                "value": coeff_vector(r.value),
                "branch_count": r.branch_count,
                "unique_at_depth": r.unique_at_depth,
            }
            for r in records
        ],
        "all_unique_at_depth": all_unique,
    }
    lines = [f"{format_word(r.word)} -> {r.branch_count} branch(es) at depth "
             f"{args.depth}" for r in records]
    lines.append(f"all unique at depth {args.depth}: {'yes' if all_unique else 'no'}")
    return "OK", fields, lines


_ORDER_TEXT = {-1: "LT", 0: "EQ", 1: "GT"}


def _order_verdict(a, b):
    """Alternate-order verdict between two expansions over every digit
    known, 'UNDECIDED' when a finite prefix runs out before they differ."""
    c = _compare_tail(_code(a.word), 0, _code(b.word), alternate=True)
    return "UNDECIDED" if c is None else _ORDER_TEXT[c]


def _cmd_branches(args):
    _, x, fields = _point(args)
    prefixes = enumerate_prefixes(x, args.depth, _node_budget())
    count = len(prefixes)
    words = [format_word(DigitString.finite(p)) for p in prefixes]
    fields |= {
        "depth": args.depth,
        "count": count,
        "prefixes": words,
    }
    lines = [f"{count} extendable prefix(es) at depth {args.depth}"]
    lines.extend(f"  {w}" for w in words)
    return "OK", fields, lines


def _cmd_compare(args):
    ctx, x, fields = _point(args)
    budget = _orbit_budget()
    depth = _bounded_depth(args.depth, budget)
    is_scheme = build_ito_sadahiro_scheme(ctx)
    if not is_scheme.domain.contains(x):
        raise DomainError(f"x = {x.as_text()} outside the Ito-Sadahiro domain "
                          f"{is_scheme.domain}")
    greedy = greedy_neg_beta(x, depth, budget)
    lazy = lazy_neg_beta(x, depth, budget)
    isexp = run_scheme(is_scheme, x, depth, budget)
    infos = {"greedy": _expansion_info(greedy), "lazy": _expansion_info(lazy),
             "ito_sadahiro": _expansion_info(isexp)}
    verdicts = {
        "lazy_vs_is": _order_verdict(lazy, isexp),
        "is_vs_greedy": _order_verdict(isexp, greedy),
    }
    # an undecided verdict outranks a period not found
    seen = {*verdicts.values(), *(i["status"] for i in infos.values())}
    status = next((s for s in ("UNDECIDED", "PERIOD_NOT_FOUND") if s in seen), "OK")
    fields |= {
        "expansions": infos,
        "alternate_order": verdicts,
    }
    lines = [
        f"ito-sadahiro  {infos['ito_sadahiro']['word']}",
        f"lazy          {infos['lazy']['word']}",
        f"greedy        {infos['greedy']['word']}",
        f"lazy {verdicts['lazy_vs_is']} ito-sadahiro, "
        f"ito-sadahiro {verdicts['is_vs_greedy']} greedy",
    ]
    return status, fields, lines


# -- driver --------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that lets values like -1/2 or -b/2 follow --x."""

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self._negative_number_matcher = re.compile(r"^-(\d|b|\()")

    def _print_message(self, message, file=None):
        # argparse 3.11+ drops write errors; a closed stdout must reach main()
        if message:
            (file or sys.stderr).write(message)


def _build_parser():
    parser = _Parser(
        prog="negabase",
        description="Greedy, lazy and Ito-Sadahiro expansions in negative "
                    "base, with exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="digit expansion of a point")
    p.add_argument("--base", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--kind", default="greedy",
                   choices=["greedy", "lazy", "is", "beta2-greedy", "beta2-lazy"])
    p.add_argument("--depth", type=int, default=None,
                   help="finite depth; omit to detect the period")

    p = sub.add_parser("admissible", help="admissibility of a digit word")
    p.add_argument("--base")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pairs", help="pair word, e.g. 1:1.0:0 or 0:1(1:0)")
    group.add_argument("--binary-golden", help="binary word, greedy shape test")
    group.add_argument("--binary-is", help="binary word, Ito-Sadahiro test")
    p.add_argument("--level", choices=["pairs-greedy", "pairs-lazy"])

    p = sub.add_parser("alphabet", help="minimal greedy/lazy pair alphabets")
    p.add_argument("--base", required=True)

    p = sub.add_parser("unique", help="sample uniquely representable numbers")
    p.add_argument("--base", required=True)
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--length", type=int, default=6)

    p = sub.add_parser("branches", help="enumerate representation prefixes")
    p.add_argument("--base", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--depth", type=int, default=10)

    p = sub.add_parser("compare", help="greedy vs lazy vs Ito-Sadahiro")
    p.add_argument("--base", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--depth", type=int, default=None)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="emit a JSON report")
    return parser


_HANDLERS = {
    "expand": _cmd_expand,
    "admissible": _cmd_admissible,
    "alphabet": _cmd_alphabet,
    "unique": _cmd_unique,
    "branches": _cmd_branches,
    "compare": _cmd_compare,
}


def main(argv=None):
    # exact values of any length parse and print; library callers keep the limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:   # 0: the interpreter has no limit on int <-> str conversion
        sys.set_int_max_str_digits(0)
    try:
        try:
            code = _run(_build_parser().parse_args(argv))
        finally:
            # argparse's --help and usage errors exit from parse_args
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (`negabase ... | head -1`): stdout goes to devnull
        # so the flush at exit cannot fail again; exit 1 as Python does on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return code


def _run(args):
    try:
        status, fields, lines = _HANDLERS[args.command](args)
    except (ValueError, BranchBudgetError) as exc:
        if not args.json:
            print(f"error: {exc}", file=sys.stderr)
            return _EXIT["ERROR"]
        status, fields = "ERROR", {"error": str(exc)}
    if args.json:
        report = {"schema": SCHEMA_VERSION, "command": args.command, "status": status}
        print(json.dumps(report | fields, indent=2))
    else:
        for line in lines:
            print(line)
        if status != "OK":
            print(f"status: {status}")
    return _EXIT[status]


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
