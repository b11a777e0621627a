"""Benchmark of negabase: expansions, admissibility, uniqueness and the CLI.

    python3 bench/run.py --workload expand --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  A run sets up (imports the package, builds the field contexts,
schemes and reference bounds, runs an untimed warm-up on inputs of its
own), then times ceil(--seconds / ROUND_SECONDS) whole rounds of seeded
operations, and at least 100 operations.  Every
output is checked by `checker`, which does not use the package.  The last
line of standard output is a JSON object with `correct`, `attempted`,
`failed` and `metrics`.

--trace 0 reports the end-to-end metrics.  --trace 1 is the traced run:
one round untraced, the same round again with every public function of
every module wrapped in a span, and the per-layer metrics derived from
those spans (see README.md).
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
SETUP_CHILDREN = 2
MIN_OPS = 100


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["expand", "admissibility", "uniqueness", "cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)   # one set-up, timed, in a child
    return p.parse_args(argv)


def calibration_unit():
    """A fixed piece of pure-Python work (rational arithmetic, hashing,
    small objects), timed now and then to follow the machine's speed."""
    a, acc, seen = Fraction(3, 7), 0, {}
    for i in range(300):
        a = a * Fraction(7, 5) - Fraction(i, 11)
        seen[i % 17, a.denominator % 13] = i
        acc += len(str(i))
    return a, acc, len(seen)


def interpreter_start():
    """Start and end `python -c pass`: the calibration unit for commands."""
    subprocess.run([sys.executable, "-c", "pass"], check=True)


class Speed:
    """Machine speed along the run, from calibration units timed at most
    every SAMPLE_EVERY seconds.  factor(a, b) = REFERENCE / (median unit
    time within WINDOW seconds of the interval [a, b]): multiplying a
    duration measured over [a, b] by it gives the duration on a machine
    that runs the unit in REFERENCE seconds."""

    REFERENCE = 2.5e-3
    SAMPLE_EVERY = 0.05
    WINDOW = 1.5
    EXTRA = 5           # samples taken around a set-up, and to warm the unit up
    run_unit = staticmethod(calibration_unit)

    def __init__(self):
        self.at = []
        self.times = []
        for _ in range(self.EXTRA):      # the first units run cold
            self.run_unit()

    def sample(self, force=False):
        t = time.perf_counter()
        if force or not self.at or t - self.at[-1] >= self.SAMPLE_EVERY:
            self.run_unit()
            self.at.append(t)
            self.times.append(time.perf_counter() - t)

    def scaled(self, fn):
        """Run fn() between calibration samples; its duration at the
        reference speed."""
        for _ in range(self.EXTRA):
            self.sample(force=True)
        t = time.perf_counter()
        fn()
        d = time.perf_counter() - t
        for _ in range(self.EXTRA):
            self.sample(force=True)
        return d * self.factor(t, t + d)

    def factor(self, start, end):
        lo, hi = start - self.WINDOW, end + self.WINDOW
        near = [u for a, u in zip(self.at, self.times) if lo <= a <= hi]
        if len(near) < 3:
            order = sorted(range(len(self.at)),
                           key=lambda i: max(start - self.at[i], self.at[i] - end))
            near = [self.times[i] for i in order[:3]]
        return self.REFERENCE / statistics.median(near)


class StartSpeed(Speed):
    """Speed for command processes, whose time is mostly interpreter start:
    the unit is `python -c pass`, timed about twice a second."""

    REFERENCE = 0.065
    SAMPLE_EVERY = 0.5
    EXTRA = 2
    run_unit = staticmethod(interpreter_start)


class Tally:
    """Attempted, failed and wrong operations plus their latencies."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.latencies = []
        self.timed = 0.0
        self.round_rates = []   # completed ops per timed second, per round
        self._round_seconds = None
        self.reasons = []

    def run(self, ops, tracer=None, speed=None):
        """Time the operations one after another; returns their results.
        With `speed`, each latency is scaled to the reference machine speed."""
        results, starts, raw = [], [], []
        clock = time.perf_counter
        for i, op in enumerate(ops):
            if speed:
                speed.sample()
            span = tracer.begin("bench.op", i) if tracer else None
            t = clock()
            try:
                out, err = op.call(), None
            except Exception as exc:   # the operation failed; counted below
                out, err = None, exc
            raw.append(clock() - t)
            starts.append(t)
            if tracer:
                tracer.finish(span)
            results.append((out, err))
        if speed:
            speed.sample(force=True)
            lat = [d * speed.factor(t, t + d) for t, d in zip(starts, raw)]
        else:
            lat = raw
        self.timed += sum(lat)
        self._round_seconds = sum(lat)
        self.latencies += lat
        return results

    def check(self, ops, results):
        from workloads import Failed
        failed = self.failed
        self._check(ops, results, Failed)
        if self._round_seconds:
            done = len(ops) - (self.failed - failed)
            self.round_rates.append(done / self._round_seconds)
            self._round_seconds = None

    def _check(self, ops, results, Failed):
        for op, (out, err) in zip(ops, results):
            self.attempted += 1
            why = None
            if err is None:
                try:
                    why = op.check(out)
                except Failed as exc:
                    err = exc
            if err is not None:
                self.failed += 1
                self._note(op, f"failed: {type(err).__name__}: {err}")
            elif why is not None:
                self.failed += 1
                self.wrong += 1
                self._note(op, f"wrong: {why}")

    def _note(self, op, text):
        if len(self.reasons) < 20:
            self.reasons.append(f"{op.kind} [{op.base}] {text}")


def make_workload(name):
    import workloads
    if name == "cli":
        return workloads.Cli(ROOT)
    return workloads.WORKLOADS[name]()


def library_setup(wl, tracer=None):
    """Import, build contexts and schemes, warm up; returns the package."""
    import negabase as nb
    from workloads import Draw
    if tracer:
        tracer.install()
    wl.setup(nb)
    warm = wl.make_round(Draw(wl.name, "warm", 0), warm=True)
    for _ in range(wl.WARM_REPEAT):
        for op in warm:
            op.call()
    if tracer:
        tracer.uninstall()
    return nb


def setup_in_child(args):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if p.returncode != 0:
        raise RuntimeError(f"set-up child failed: {p.stderr.strip()[-500:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])["setup_s"]


def cli_setup(wl, rep):
    """Compile the bytecode and run the warm-up commands."""
    from workloads import Draw
    wl.setup()
    for op in wl.make_round(Draw("cli", "warm", rep), warm=True):
        op.call()


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(tally, setup_s, peak_kb):
    lat = tally.latencies
    return {
        "ops_per_s": {"value": statistics.median(tally.round_rates), "unit": "ops/s"},
        "latency_p50_ms": {"value": 1000 * statistics.median(lat), "unit": "ms"},
        "latency_p90_ms": {"value": 1000 * quantile(lat, 90), "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }


def round_count(seconds, wl):
    return max(1, math.ceil(seconds / wl.ROUND_SECONDS))


def measure(args, wl, tally, speed):
    """The run's whole rounds: inputs, timed operations, checks.  At least
    MIN_OPS operations are timed."""
    from workloads import Draw
    r = 0
    rounds = round_count(args.seconds, wl)
    while r < rounds or len(tally.latencies) < MIN_OPS:
        ops = wl.make_round(Draw(args.workload, args.seed, r))
        tally.check(ops, tally.run(ops, speed=speed))
        r += 1


def untraced(args):
    wl = make_workload(args.workload)
    tally = Tally()
    speed = StartSpeed() if args.workload == "cli" else Speed()
    if args.workload == "cli":
        setup_s = statistics.median(
            speed.scaled(lambda rep=rep: cli_setup(wl, rep)) for rep in range(5))
        measure(args, wl, tally, speed)
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        mine = speed.scaled(lambda: library_setup(wl))
        if args.setup_only:
            return {"setup_s": mine}
        samples = [mine] + [setup_in_child(args) for _ in range(SETUP_CHILDREN)]
        setup_s = statistics.median(samples)
        measure(args, wl, tally, speed)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result(tally, end_to_end(tally, setup_s, peak))


def traced(args):
    """The rounds of a quarter of --seconds untraced, then the same rounds
    again with spans; per-layer metrics come from the second pass."""
    import layers
    from spans import Tracer
    from workloads import Draw
    wl = make_workload(args.workload)
    os.makedirs(OUT, exist_ok=True)
    tracer = Tracer()
    layers.add_tags(tracer)
    plain, spanned = Tally(), Tally()
    cli = args.workload == "cli"
    speed = StartSpeed() if cli else Speed()
    if cli:
        cli_setup(wl, 0)
        start_ms = layers.interpreter_start_ms(wl)
    else:
        library_setup(wl, tracer)
    rounds = round_count(args.seconds / 4, wl)
    for r in range(rounds):
        ops = wl.make_round(Draw(args.workload, args.seed, r))
        plain.check(ops, plain.run(ops, speed=speed))
    if cli:
        child_dir = layers.fresh_dir(os.path.join(OUT, f"cli-spans-{args.seed}"))
        wl.launcher = [sys.executable, os.path.join(HERE, "trace_child.py"), child_dir]
    first = len(tracer.start)
    all_ops, all_results = [], []
    for r in range(rounds):
        ops = wl.make_round(Draw(args.workload, args.seed, r))
        if not cli:
            tracer.install()
        results = spanned.run(ops, tracer, speed)
        if not cli:
            tracer.uninstall()
        spanned.check(ops, results)
        all_ops += ops
        all_results += results
    if cli:
        metrics = layers.cli_metrics(all_ops, child_dir, start_ms)
    else:
        metrics = layers.library_metrics(tracer, first, all_ops, all_results, wl)
    tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.bin"))
    metrics["trace.overhead_pct"] = 100 * (spanned.timed / plain.timed - 1)
    plain.attempted += spanned.attempted
    plain.failed += spanned.failed
    plain.wrong += spanned.wrong
    plain.reasons += spanned.reasons
    return result(plain, layers.complete(metrics))


def result(tally, metrics):
    for line in tally.reasons:
        print(line, file=sys.stderr)
    return {"correct": tally.wrong == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "negabase", "__init__.py")):
        print(f"error: no negabase sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a negabase checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    out = traced(args) if args.trace else untraced(args)
    text = json.dumps(out)
    if not args.setup_only:
        os.makedirs(OUT, exist_ok=True)
        name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
        with open(os.path.join(OUT, name), "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
