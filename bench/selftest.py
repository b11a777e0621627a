"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

Runs a few operations of each workload, then hands each check one wrong
answer: a flipped digit (expand, cli), a swapped verdict (admissibility)
and an off-by-one branch count (uniqueness).  Each must be counted as a
failed, wrong operation while the untouched operations pass.  Exits 0
when every case behaves, 1 otherwise.
"""

import dataclasses
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import negabase as nb  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402


def flip_digit(exp):
    """The same expansion with its first digit changed."""
    w = exp.word
    digits = w.preperiod or w.period
    first = 1 - digits[0] if digits[0] in (0, 1) else digits[0] - 1
    if w.preperiod:
        word = nb.DigitString((first,) + w.preperiod[1:], w.period)
    else:
        word = nb.DigitString((first,), w.period[1:] + w.period[:1])
    return dataclasses.replace(exp, word=word)


def swap_verdict(report):
    verdict = "rejected" if report.verdict == "admissible" else "admissible"
    return dataclasses.replace(report, verdict=verdict)


def flip_json_word(result):
    code, out, err = result
    rep = json.loads(out)
    word = rep["result"]["word"]
    i = next(i for i, c in enumerate(word) if c in "01")
    rep["result"]["word"] = word[:i] + ("1" if word[i] == "0" else "0") + word[i + 1:]
    return code, json.dumps(rep), err


def case(title, wl, ops, target, mutate):
    """Run ops, corrupt the result of ops[target], and check the tally."""
    tally = run.Tally()
    results = tally.run(ops)
    clean = run.Tally()
    clean.check(ops, results)
    out, err = results[target]
    results[target] = (mutate(out), err)
    tally.check(ops, results)
    ok = clean.failed == 0 and tally.failed == 1 and tally.wrong == 1
    print(f"{'PASS' if ok else 'FAIL'}  {title}: clean failed={clean.failed}, "
          f"corrupted failed={tally.failed} wrong={tally.wrong}")
    return ok


def benchmark_file():
    """BENCHMARK.json names exactly the metrics run.py prints."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    tally = run.Tally()
    tally.latencies, tally.round_rates = [0.1, 0.2, 0.3], [1.0]
    printed = [(k, v["unit"]) for k, v in run.end_to_end(tally, 1.0, 1024).items()]
    declared = [(m["name"], m["unit"]) for m in doc["end_to_end"]]
    ok = printed == declared and \
        [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(layers.PER_LAYER)
    print(f"{'PASS' if ok else 'FAIL'}  BENCHMARK.json lists the printed metrics and units")
    return ok


def main():
    ok = benchmark_file()

    wl = W.Expand()
    wl.setup(nb)
    ops = [op for op in wl.make_round(W.Draw("expand", 1, 0))
           if op.base in ("phi", "7_4")]
    for kind in ("greedy", "is", "beta2-lazy"):
        target = next(i for i, op in enumerate(ops) if op.kind == kind and op.base == "phi")
        mutate = flip_digit if not kind.startswith("beta2") else (
            lambda exp: dataclasses.replace(exp, word=nb.DigitString(
                (nb.PairDigit(1 - exp.word.digit_at(0)[0], exp.word.digit_at(0)[1]),)
                + exp.word.preperiod[1:], exp.word.period)))
        ok &= case(f"expand, flipped digit in a {kind} word", wl, ops, target, mutate)
    target = next(i for i, op in enumerate(ops) if op.base == "7_4")
    ok &= case("expand, flipped digit in a fixed-depth 7/4 word", wl, ops, target, flip_digit)

    wl = W.Admissibility()
    wl.setup(nb)
    ops = wl.make_round(W.Draw("admissibility", 1, 0))
    for kind in ("pairs-greedy", "pairs-lazy", "binary-golden", "binary-is"):
        target = next(i for i, op in enumerate(ops) if op.kind == kind)
        ok &= case(f"admissibility, swapped {kind} verdict", wl, ops, target, swap_verdict)

    wl = W.Uniqueness()
    wl.setup(nb)
    ops = [op for op in wl.make_round(W.Draw("uniqueness", 1, 0)) if op.kind == "count"]
    ok &= case("uniqueness, off-by-one branch count at an interior point", wl, ops, 0,
               lambda n: n + 1)
    ok &= case("uniqueness, off-by-one branch count at a unique point", wl, ops, len(ops) - 1,
               lambda n: n + 1)

    wl = W.Cli(ROOT)
    wl.setup()
    kind, base, argv, check = wl._expand("phi", W.R(-1, 2), "greedy")
    ops = [W.Op(kind, base, lambda: wl.run(argv), check)]
    ok &= case("cli, flipped digit in a JSON word", wl, ops, 0, flip_json_word)

    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
