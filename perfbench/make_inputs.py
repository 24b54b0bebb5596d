"""Generate and write one workload's input files.

Usage: python3 perfbench/make_inputs.py WORKLOAD SEED OUT_DIR [SPANS_OUT]

Writes ``graph.txt`` and ``weighted.txt`` (plus ``.labels`` siblings)
into OUT_DIR with arbolist's own writers, as ``arbolist gen`` does, and
prints ``setup_s=<seconds>``: the time from the start of generation to
the end of writing, without interpreter start-up.  With SPANS_OUT, the
run is traced: ``setup.generate`` covers building both graphs and the
``graphio.write_*`` spans cover writing them.
"""

import sys
from pathlib import Path
from time import perf_counter

from tracing import Tracer
from workloads import GRAPH, WEIGHTED, WORKLOADS, generate


def main(name: str, seed: int, out_dir: Path, spans_out=None) -> None:
    tracer = Tracer()
    if spans_out:
        tracer.install()
    from arbolist import graphio

    t0 = perf_counter()
    with tracer.span("setup.generate"):
        graph, weighted = generate(name, seed)
    comment = f"perfbench {name} seed={seed}"
    graphio.write_edge_list(out_dir / GRAPH, graph, generator_comment=comment)
    graphio.write_weighted_kpartite(out_dir / WEIGHTED, weighted,
                                    generator_comment=comment)
    print(f"setup_s={perf_counter() - t0}")
    if spans_out:
        tracer.dump(spans_out)


if __name__ == "__main__":
    if len(sys.argv) not in (4, 5) or sys.argv[1] not in WORKLOADS:
        sys.exit(__doc__)
    main(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), *sys.argv[4:])
