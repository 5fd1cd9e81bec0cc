"""Run ``straight serve`` in this process, optionally with span tracing.

Usage: ``python3 perfbench/serve_child.py [--trace-out PATH] <serve args>``.
With ``--trace-out`` the layer wrappers of :mod:`tracing` are installed
before the server starts, and the recorded spans are written to ``PATH``
when the server stops (SIGINT).
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv):
    trace_out = None
    if "--trace-out" in argv:
        at = argv.index("--trace-out")
        trace_out = argv[at + 1]
        argv = argv[:at] + argv[at + 2:]
    tracer = None
    if trace_out:
        from tracing import Tracer

        tracer = Tracer().install()
    from repro.tools.cli import main as cli_main

    try:
        return cli_main(["serve"] + argv)
    finally:
        if tracer is not None:
            tracer.write(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
