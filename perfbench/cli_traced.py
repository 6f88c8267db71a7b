"""Run one psbe CLI command with the tracer installed.

Usage: cli_traced.py OUT.json ARGS...  -- behaves like
``python -m psbe.cli ARGS...`` and writes the recorded spans and counts
to OUT.json.  The benchmark's traced cli rounds use it in place of
``-m psbe.cli``.
"""

import json
import sys

import psbe.cli

from tracer import Tracer, install_psbe


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install_psbe(tracer)
    tracer.enabled = True
    try:
        code = psbe.cli.run(argv)
    finally:
        tracer.enabled = False
        with open(out, "w") as fh:
            json.dump(tracer.dump(), fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
