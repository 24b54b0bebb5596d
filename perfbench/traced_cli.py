"""Run the arbolist CLI with layer spans recorded.

Usage: python3 perfbench/traced_cli.py SPANS_OUT -- ARGS...

Behaves like ``arbolist ARGS...`` (same stdout and exit code) and writes
the spans to SPANS_OUT at the end, with three marks on the shared
monotonic clock: ``ready`` once ``arbolist.cli`` is imported, before the
tracing module is; ``installed`` once the spans are hooked in; and
``main_end`` once the command has returned and stdout is flushed.
"""

import sys
from time import perf_counter

import arbolist.cli

ready = perf_counter()

from tracing import Tracer  # noqa: E402  (after the start-up mark)

if __name__ == "__main__":
    spans_out, sep, *argv = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: traced_cli.py SPANS_OUT -- ARGS...")
    tracer = Tracer()
    tracer.install()
    installed = perf_counter()
    code = arbolist.cli.main(argv)
    sys.stdout.flush()
    tracer.dump(spans_out, ready=ready, installed=installed,
                main_end=perf_counter())
    sys.exit(code)
