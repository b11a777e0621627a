"""Per-layer metrics of the traced run, derived from spans (see spans.py).

Every metric in PER_LAYER is printed by every traced run.  A metric whose
layer does no work in a workload (no spans, no digits, no leaves) reads 0.
"""

import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

import spans

SIGN = "field.ExactReal.sign"
MULS = ("field.ExactReal.__mul__", "field.ExactReal.__rmul__")
EVAL_INTERVAL = "polys.eval_interval"
EVAL_DIGITS = "schemes.eval_digits"
BOUNDS = "admissibility.reference_bounds"
LEAVES = ("oracle.count_representation_branches", "oracle.enumerate_prefixes")
WHOLE_RUN = ("field.ExactReal.floor", "field.ExactReal.inverse")

# min_poly of a context -> base label, for tagging reference_bounds spans
BOUND_BASES = {(-1, -1, 1): "phi", (-1, -1, -1, 1): "tribonacci", (-7, 4): "7_4"}
_BOUND_TAGS = {poly: i + 1 for i, poly in enumerate(BOUND_BASES)}

EXPAND_KEYS = [(k, b) for b in ("phi", "tribonacci", "rt3")
               for k in ("greedy", "lazy", "is", "beta2-greedy", "beta2-lazy")] + \
              [(k, b) for b in ("tetranacci", "7_4") for k in ("greedy", "lazy")]
WORD_KEYS = [("pairs-greedy", "phi"), ("pairs-lazy", "phi"),
             ("pairs-greedy", "tribonacci"), ("pairs-lazy", "tribonacci"),
             ("binary-golden", "phi"), ("binary-is", "phi")]

LAYER_NAMES = ("polys", "field", "words", "schemes", "admissibility", "oracle", "syntax", "cli")

PER_LAYER = (
    [(f"{layer}.self_ms_per_op", "ms") for layer in LAYER_NAMES]
    + [("field.sign_calls_per_op", "count"), ("field.sign_us", "us"),
       ("polys.eval_interval_per_sign", "count"),
       ("field.mul_calls_per_op", "count"), ("field.mul_us", "us"),
       ("field.floor_us", "us"), ("field.inverse_us", "us"),
       ("field.refinement_levels", "count")]
    + [(f"schemes.us_per_digit.{k}.{b}", "us") for k, b in EXPAND_KEYS]
    + [("schemes.digits_per_op", "count"), ("schemes.eval_us_per_digit", "us")]
    + [(f"admissibility.us_per_word.{k}.{b}", "us") for k, b in WORD_KEYS]
    + [("admissibility.us_per_digit", "us")]
    + [(f"admissibility.reference_bounds_ms.{b}", "ms") for b in BOUND_BASES.values()]
    + [("oracle.leaves_per_op", "count"), ("oracle.sign_calls_per_leaf", "count"),
       ("syntax.parse_base_us", "us"), ("syntax.parse_element_us", "us"),
       ("cli.import_ms", "ms"), ("cli.main_ms", "ms"), ("cli.interpreter_start_ms", "ms"),
       ("trace.overhead_pct", "%")]
)


def add_tags(tracer):
    """Integer tags the metrics need: digits evaluated, leaves reached,
    and the base whose reference bounds were computed."""
    tracer.tag_with(EVAL_DIGITS, lambda args, res: len(args[0].preperiod) + len(args[0].period))
    tracer.tag_with(BOUNDS, lambda args, res: _BOUND_TAGS.get(tuple(args[0].min_poly), 0))
    tracer.tag_with(LEAVES[0], lambda args, res: res)
    tracer.tag_with(LEAVES[1], lambda args, res: len(res))


class Totals:
    """Span totals summed over one or more span sets."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.count = Counter()
        self.seconds = defaultdict(float)
        self.tags = Counter()
        self.evals_in_sign = 0
        self.oracle_signs = 0
        self.whole_count = Counter()
        self.whole_seconds = defaultdict(float)
        self.bounds_s = {}

    def add(self, s, first=0):
        """Spans from index `first` on; floor, inverse and reference
        bounds are taken from the whole run, set-up included."""
        names = s.names
        layer = [n.split(".", 1)[0] for n in names]
        for i, nid in enumerate(s.name):
            name = names[nid]
            dur = s.duration[i]
            if name in WHOLE_RUN:
                self.whole_count[name] += 1
                self.whole_seconds[name] += dur
            elif name == BOUNDS:
                base = s.tag[i]
                self.bounds_s[base] = max(self.bounds_s.get(base, 0.0), dur)
            if i < first:
                continue
            self.self_s[layer[nid]] += s.self_time[i]
            self.count[name] += 1
            self.seconds[name] += dur
            self.tags[name] += s.tag[i]
            p = s.parent[i]
            if p >= 0:
                parent = names[s.name[p]]
                if name == EVAL_INTERVAL and parent == SIGN:
                    self.evals_in_sign += 1
                elif name == SIGN and parent.startswith("oracle."):
                    self.oracle_signs += 1

    def mean_us(self, name):
        return 1e6 * self.seconds[name] / self.count[name] if self.count[name] else 0.0

    def metrics(self, n_ops):
        m = {f"{layer}.self_ms_per_op": 1000 * self.self_s.get(layer, 0.0) / n_ops
             for layer in LAYER_NAMES}
        signs = self.count[SIGN]
        muls = sum(self.count[k] for k in MULS)
        leaves = self.tags[LEAVES[0]] + self.tags[LEAVES[1]]
        digits = self.tags[EVAL_DIGITS]
        m.update({
            "field.sign_calls_per_op": signs / n_ops,
            "field.sign_us": self.mean_us(SIGN),
            "polys.eval_interval_per_sign": self.evals_in_sign / signs if signs else 0.0,
            "field.mul_calls_per_op": muls / n_ops,
            "field.mul_us": 1e6 * sum(self.seconds[k] for k in MULS) / muls if muls else 0.0,
            "schemes.eval_us_per_digit": 1e6 * self.seconds[EVAL_DIGITS] / digits if digits else 0.0,
            "oracle.leaves_per_op": leaves / n_ops,
            "oracle.sign_calls_per_leaf": self.oracle_signs / leaves if leaves else 0.0,
            "syntax.parse_base_us": self.mean_us("syntax.parse_base"),
            "syntax.parse_element_us": self.mean_us("syntax.parse_element"),
        })
        for name in WHOLE_RUN:
            c = self.whole_count[name]
            key = "field." + name.rsplit(".", 1)[1] + "_us"
            m[key] = 1e6 * self.whole_seconds[name] / c if c else 0.0
        for poly, base in BOUND_BASES.items():
            m[f"admissibility.reference_bounds_ms.{base}"] = \
                1000 * self.bounds_s.get(_BOUND_TAGS[poly], 0.0)
        return m


def op_durations(tracer, first):
    s = spans.SpanSet.of(tracer)
    op_id = tracer.name_id("bench.op")
    return s, [s.duration[i] for i in range(first, len(s.name)) if s.name[i] == op_id]


def library_metrics(tracer, first, ops, results, wl):
    s, durations = op_durations(tracer, first)
    totals = Totals()
    totals.add(s, first)
    m = totals.metrics(len(ops))
    by_key = defaultdict(lambda: [0.0, 0])
    digits = size = 0
    seconds = 0.0
    for op, (out, _), dur in zip(ops, results, durations):
        if wl.name == "expand" and out is not None:
            n = len(out.word.preperiod) + len(out.word.period)
            digits += n
            by_key[op.kind, op.base][0] += dur
            by_key[op.kind, op.base][1] += n
        elif wl.name == "admissibility":
            by_key[op.kind, op.base][0] += dur
            by_key[op.kind, op.base][1] += 1
            size += op.size
            seconds += dur
    for prefix, keys in (("schemes.us_per_digit", EXPAND_KEYS),
                         ("admissibility.us_per_word", WORD_KEYS)):
        for k, b in keys:
            t, n = by_key.get((k, b), (0.0, 0))
            m[f"{prefix}.{k}.{b}"] = 1e6 * t / n if n else 0.0
    m["schemes.digits_per_op"] = digits / len(ops)
    m["admissibility.us_per_digit"] = 1e6 * seconds / size if size else 0.0
    contexts = {id(ctx): ctx for ctx in wl.contexts().values()}
    m["field.refinement_levels"] = sum(ctx.refinement_count() for ctx in contexts.values())
    return m


def cli_metrics(ops, child_dir, start_ms):
    totals = Totals()
    imports, mains = [], []
    for name in sorted(os.listdir(child_dir)):
        s = spans.read(os.path.join(child_dir, name))
        totals.add(s)
        for i, nid in enumerate(s.name):
            if s.names[nid] == "bench.import":
                imports.append(s.duration[i])
            elif s.names[nid] == "cli.main":
                mains.append(s.duration[i])
    m = totals.metrics(len(ops))
    m["cli.import_ms"] = 1000 * statistics.median(imports) if imports else 0.0
    m["cli.main_ms"] = 1000 * statistics.median(mains) if mains else 0.0
    m["cli.interpreter_start_ms"] = start_ms
    return m


def interpreter_start_ms(wl, times=11):
    """Median wall time of `python -c pass`: the floor of every command."""
    samples = []
    for _ in range(times):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=wl.env, check=True)
        samples.append(time.perf_counter() - t)
    return 1000 * statistics.median(samples)


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def complete(metrics):
    """Every per-layer metric, in PER_LAYER order, with its unit."""
    return {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER}
