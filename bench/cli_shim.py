"""A traced CLI call: `python bench/cli_shim.py ARGS...` runs
`hurwitzcalc.cli.main(ARGS)` like `python -m hurwitzcalc.cli ARGS...`, with
the layer tracer installed after the import.  It appends one line to
stderr, `@@trace ` and a JSON object: the monotonic time at which this
script started (the caller subtracts its spawn time to get the interpreter
start-up), the import time of `hurwitzcalc.cli`, and the tracer's summary.
"""

import time

STARTED = time.monotonic()

import sys  # noqa: E402

import hurwitzcalc.cli  # noqa: E402

IMPORT_S = time.monotonic() - STARTED

import json  # noqa: E402

import tracing  # noqa: E402

TRACE_MARK = "@@trace "


def main() -> int:
    tracer = tracing.Tracer().install()
    try:
        code = hurwitzcalc.cli.main(sys.argv[1:])
    except SystemExit as exc:   # argparse usage errors
        code = exc.code
    tracer.on = False
    sys.stdout.flush()
    print(TRACE_MARK + json.dumps({"started": STARTED, "import_s": IMPORT_S,
                                   "trace": tracer.summary()}),
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
