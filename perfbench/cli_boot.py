"""Run one ``prodfade`` CLI command with tracing on.

Usage: ``python3 cli_boot.py TRACE_OUT COMMAND [ARGS...]``.  Wraps the
library's entry points exactly as the in-process traced run does, runs
``prodfade.cli.main`` on the arguments and writes the command's layer
totals, counters and spans to ``TRACE_OUT`` as JSON.  The exit code is
the CLI's.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main():
    trace_out, argv = sys.argv[1], sys.argv[2:]
    import tracer as tracing
    from prodfade import cli, mixture

    tracer = tracing.Tracer()
    tracing.install(tracer)
    mark = tracer.mark()
    before = mixture.expand.cache_info()
    tracer.request = argv[0]
    span = tracer.open("cli." + argv[0])
    try:
        code = cli.main(argv)
    finally:
        tracer.close(span)
    layers, counts = tracer.since(mark)
    after = mixture.expand.cache_info()
    counts["mixture.expand.hits"] = after.hits - before.hits
    counts["mixture.expand.misses"] = after.misses - before.misses
    with open(trace_out, "w") as fh:
        json.dump({"layers": layers, "counts": counts, "spans": tracer.records()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
