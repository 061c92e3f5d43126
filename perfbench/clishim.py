"""Traced stand-in for ``python -m diracshoot``.

Usage: python perfbench/clishim.py SPANS_PATH UNIT_ID COMMAND [ARGS...]

Times the import of the program as a span, installs the tracing wrappers,
runs ``diracshoot.cli.main`` on the remaining arguments and writes this
invocation's spans and counters to SPANS_PATH.  The exit code is the CLI's.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    spans_path, unit, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = tracing.Tracer()
    tracer.begin_unit(unit, START)
    tracer.begin("import")
    from diracshoot import cli

    tracer.end()
    tracing.install(tracer)
    code = cli.main(argv)
    tracer.end_unit()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
