"""A fixed job that measures how fast the machine runs right now.

Usage: python3 perfbench/speed_probe.py

The benchmark runs it as a child between rounds of CLI commands and
scales each command's wall time by the probe's wall time around it (see
DESIGN.md).  It does the same kinds of work as a command: interpreter
start-up with the numpy import, building adjacency sets, formatting and
parsing an edge list, ordering vertices and counting triangles by set
intersection.  It never imports arbolist, so a change to arbolist does
not change the probe.  It prints the triangle count, which is the same
on every run.
"""

import random

import numpy  # noqa: F401  (start-up cost, as in every CLI command)

N, M, SEED = 2500, 50000, 7


def main() -> int:
    rng = random.Random(SEED)
    adj = [set() for _ in range(N)]
    edges = []
    while len(edges) < M:
        u, v = rng.randrange(N), rng.randrange(N)
        if u != v and v not in adj[u]:
            adj[u].add(v)
            adj[v].add(u)
            edges.append((u, v))
    text = "\n".join(f"{u} {v}" for u, v in edges)
    parsed = [tuple(map(int, line.split())) for line in text.splitlines()]
    assert len(parsed) == M
    order = sorted(range(N), key=lambda x: len(adj[x]))
    rank = {v: i for i, v in enumerate(order)}
    out = [[w for w in adj[v] if rank[w] > rank[v]] for v in range(N)]
    triangles = 0
    for v in range(N):
        later = set(out[v])
        for w in out[v]:
            triangles += len(later.intersection(out[w]))
    return triangles


if __name__ == "__main__":
    print(main())
