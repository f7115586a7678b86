"""Run one `tropfit` CLI command with layer tracing, for traced CLI operations.

Usage: python3 bench_traced_cli.py SPANS_JSON COMMAND [ARGS...]

Times `import tropfit` and `tropfit.cli.main(ARGS)` as spans, wraps the
layer functions as bench_trace describes, writes the spans to SPANS_JSON
and exits with the CLI's exit code.  tropfit must be importable (PYTHONPATH).
"""

import sys

import bench_trace

rec = bench_trace.Recorder()
index = rec.begin(bench_trace.IMPORT)
import tropfit.cli  # noqa: E402

rec.end(index)
tracer = bench_trace.Tracer(rec)
tracer.install()
index = rec.begin(bench_trace.CLI_MAIN)
try:
    code = tropfit.cli.main(sys.argv[2:])
finally:
    rec.end(index)
    tracer.remove()
    rec.dump(sys.argv[1])
sys.exit(code)
