"""One traced `negabase` command, for the traced run of the cli workload.

    python3 bench/trace_child.py <span-dir> <negabase arguments...>

Times `import negabase.cli` as the span `bench.import`, wraps the package
with spans.Tracer, runs `negabase.cli.main` on the arguments (its report
goes to standard output as usual) and writes the spans to a new file in
<span-dir>.  Exits with main's exit code.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
from spans import Tracer  # noqa: E402


def main():
    out_dir, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    layers.add_tags(tracer)
    span = tracer.begin("bench.import")
    import negabase.cli
    tracer.finish(span)
    tracer.install()
    try:
        code = negabase.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.write(os.path.join(out_dir, f"{os.getpid()}-{time.monotonic_ns()}.bin"))
    return code


if __name__ == "__main__":
    sys.exit(main())
