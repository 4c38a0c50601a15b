"""Run ``kappacov`` CLI arguments in this cold process with spans on.

Usage: ``python3 perfbench/traced_cli.py SPANS_JSON MEMORY ARG...`` with
the program's ``src`` directory on ``PYTHONPATH``; MEMORY is 1 to record
tracemalloc peaks, else 0.  The CLI prints as usual; the spans go to
SPANS_JSON and the exit code is the CLI's.
"""

import sys

import kappacov.cli

from tracer import Tracer, dump


def main() -> int:
    spans_path, memory, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = Tracer(memory)
    with tracer.installed():
        code = kappacov.cli.run(argv)
    sys.stdout.flush()
    dump(spans_path, spans=tracer.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
