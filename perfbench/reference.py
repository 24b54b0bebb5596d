"""Expected outputs, computed from the input files without the listers.

Usage: python3 perfbench/reference.py WORKLOAD RUN_DIR OUT_JSON

Runs as its own process, so the benchmark process stays small: a
child's peak RSS as reported by ``wait4`` includes the peak of the
process that spawned it.

Counts come from numpy linear algebra on the adjacency matrix: for a
simple graph with degrees d and m edges, trace(A^3) = 6 * triangles and
trace(A^4) = 8 * 4-cycles + 2 * sum(d^2) - 2m.  A K4 holds three
4-cycles, so a 4-cycle-free graph has no K4; on small graphs K4s are
counted edge by edge.  The c4-stream records come from the block
structure of the file itself.  The zero-clique checks scan every
one-vertex-per-part triple with numpy.  None of this calls a lister, an
oracle or the solver.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from workloads import (C4_CORE_N, GRAPH, SOLVE_S, SOLVE_SEED, WEIGHTED,
                       WORKLOADS)

_HEADER = re.compile(r"#\s*n=(\d+)")


def read_edges(path: Path, cols: int = 2) -> tuple[int, np.ndarray]:
    """(n, rows) of an edge-list file; rows has ``cols`` int64 columns."""
    with open(path, "r", encoding="ascii") as fh:
        n = next(int(m.group(1)) for m in map(_HEADER.match, fh) if m)
    rows = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2)
    return n, rows.reshape(-1, cols)


def read_labels(path: Path) -> np.ndarray:
    return np.loadtxt(path, dtype=np.int64, comments="#", ndmin=1)


def adjacency(n: int, edges: np.ndarray) -> np.ndarray:
    a = np.zeros((n, n), dtype=np.float32)
    a[edges[:, 0], edges[:, 1]] = 1
    a[edges[:, 1], edges[:, 0]] = 1
    return a


def _whole(x: float) -> int:
    r = round(x)
    if abs(x - r) > 1e-6 * max(1.0, abs(x)):
        raise ValueError(f"count {x} is not a whole number")
    return r


def k4_small(a: np.ndarray) -> int:
    """K4 count, one edge at a time: edges inside each common neighbourhood."""
    if a.shape[0] > 2000:
        raise ValueError("edge-by-edge K4 count is for small graphs")
    b = a.astype(bool)
    total = 0
    for u, v in zip(*np.nonzero(np.triu(b, 1))):
        common = b[u] & b[v]
        total += int(b[np.ix_(common, common)].sum()) // 2
    return total // 6


def subgraph_counts(n: int, edges: np.ndarray) -> dict[str, int]:
    """Triangle, 4-cycle and K4 counts from powers of the adjacency matrix.

    float32 is exact here: every entry of A^2 is a count below 2^24.
    """
    a = adjacency(n, edges)
    a2 = a @ a
    deg = a.sum(axis=1, dtype=np.float64)
    m = len(edges)
    triangles = _whole(float((a2 * a).sum(dtype=np.float64)) / 6)
    tr4 = float(np.square(a2, dtype=np.float64).sum())
    c4 = _whole((tr4 - 2 * float(np.square(deg).sum()) + 2 * m) / 8)
    return {"triangle": triangles, "c4": c4,
            "clique": 0 if c4 == 0 else k4_small(a)}


def degeneracy(n: int, edges: np.ndarray) -> int:
    """Largest k whose k-core is nonempty, by repeated peeling."""
    u, v = edges[:, 0], edges[:, 1]
    alive = np.ones(n, dtype=bool)
    k = 0
    while True:
        while True:
            live = alive[u] & alive[v]
            deg = (np.bincount(u[live], minlength=n)
                   + np.bincount(v[live], minlength=n))
            drop = alive & (deg <= k)
            if not drop.any():
                break
            alive &= ~drop
        if not alive.any():
            return k
        k += 1


def triangle_records(n: int, edges: np.ndarray) -> np.ndarray:
    """Every triangle a < b < c of a small graph, sorted."""
    b = adjacency(n, edges).astype(bool)
    a_, b_, c_ = np.nonzero(b[:, :, None] & b[:, None, :] & b[None, :, :])
    keep = (a_ < b_) & (b_ < c_)
    return sorted_rows(np.stack([a_[keep], b_[keep], c_[keep]], axis=1))


def sorted_rows(rows: np.ndarray) -> np.ndarray:
    return rows[np.lexsort(rows.T[::-1])] if len(rows) else rows


def block_c4_records(n: int, edges: np.ndarray, core_n: int) -> np.ndarray:
    """Canonical records of the K(2,2) blocks on vertices >= core_n.

    Checks that every block vertex has exactly two neighbours, both in
    blocks, and that the two neighbours of v share exactly one further
    neighbour c, the vertex opposite v.  Each block's record is taken at
    its smallest vertex a: (a, smaller neighbour, opposite, larger).
    """
    in_block = edges >= core_n
    if (in_block[:, 0] != in_block[:, 1]).any():
        raise ValueError("an edge joins the core to a block")
    blk = edges[in_block[:, 0]]
    src = np.concatenate([blk[:, 0], blk[:, 1]])
    dst = np.concatenate([blk[:, 1], blk[:, 0]])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    verts = src[::2]
    if len(src) != 2 * (n - core_n) or (src[1::2] != verts).any() \
            or (verts != np.arange(core_n, n)).any():
        raise ValueError("a block vertex does not have degree 2")
    nbr = dst.reshape(-1, 2) - core_n
    v = verts - core_n
    x, y = nbr[:, 0], nbr[:, 1]
    opposite = nbr[x].sum(axis=1) - v
    if (nbr[y].sum(axis=1) - v != opposite).any():
        raise ValueError("a block is not a 4-cycle")
    first = (v < x) & (v < opposite)
    rec = np.stack([v, x, opposite, y], axis=1)[first] + core_n
    if 4 * len(rec) != n - core_n:
        raise ValueError("blocks do not have four vertices each")
    return sorted_rows(rec)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for b in bases:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass
class ZeroInstance:
    """A weighted 3-partite file as per-pair weight and presence matrices."""

    n: int
    labels: np.ndarray
    parts: list[np.ndarray]
    pos: np.ndarray       # index of each vertex inside its part
    edges: np.ndarray
    weights: np.ndarray
    present: dict = field(default_factory=dict)
    weight: dict = field(default_factory=dict)

    @classmethod
    def read(cls, path: Path) -> "ZeroInstance":
        n, rows = read_edges(path, cols=3)
        labels = read_labels(Path(f"{path}.labels"))
        parts = [np.flatnonzero(labels == j) for j in range(3)]
        if len(labels) != n or sum(map(len, parts)) != n:
            raise ValueError("labels are not a 3-partition")
        pos = np.zeros(n, dtype=np.int64)
        for part in parts:
            pos[part] = np.arange(len(part))
        inst = cls(n, labels, parts, pos, rows[:, :2], rows[:, 2])
        lu, lv = labels[rows[:, 0]], labels[rows[:, 1]]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            fwd = (lu == i) & (lv == j)
            rev = (lu == j) & (lv == i)
            r = np.concatenate([pos[rows[fwd, 0]], pos[rows[rev, 1]]])
            c = np.concatenate([pos[rows[fwd, 1]], pos[rows[rev, 0]]])
            w = np.concatenate([rows[fwd, 2], rows[rev, 2]])
            pres = np.zeros((len(parts[i]), len(parts[j])), dtype=bool)
            wm = np.zeros(pres.shape, dtype=np.int64)
            pres[r, c] = True
            wm[r, c] = w
            inst.present[i, j], inst.weight[i, j] = pres, wm
        if sum(int(p.sum()) for p in inst.present.values()) != len(rows):
            raise ValueError("an edge joins two vertices of one part")
        return inst

    def triples(self, per_pair: dict) -> np.ndarray:
        """Broadcast a per-pair matrix to every (part0, part1, part2) triple."""
        return (per_pair[0, 1][:, :, None], per_pair[0, 2][:, None, :],
                per_pair[1, 2][None, :, :])

    def triangle_mask(self) -> np.ndarray:
        a, b, c = self.triples(self.present)
        return a & b & c


def admissible_table(p: int, length: int) -> np.ndarray:
    """adm[i, j, l]: the sums over intervals i, j, l reach a multiple of p.

    [0, p) is cut into intervals of ``length``; a sum of one value per
    interval ranges over [lo, hi], which holds a multiple of p iff
    floor(hi / p) >= ceil(lo / p).
    """
    starts = np.arange(0, p, length, dtype=np.int64)
    ends = np.minimum(starts + length, p) - 1
    lo = starts[:, None, None] + starts[None, :, None] + starts[None, None, :]
    hi = ends[:, None, None] + ends[None, :, None] + ends[None, None, :]
    return hi // p >= -(-lo // p)


def bucketed_candidates(inst: ZeroInstance, p: int, length: int,
                        seed: int) -> int:
    """Triangles whose hashed edges fall into an admissible bucket.

    Each triangle lies in exactly one bucket, the one given by the
    intervals of its three hashed edge weights, so when no witness stops
    the search early this is the number of cliques the solver lists.
    The hash parameters come from arbolist's public sampler with the
    solver's seed; hashing and bucketing are redone here on the weights.
    """
    from arbolist.zeroclique import sample_hash_params

    g = SimpleNamespace(k=3, weight_bound=int(np.abs(inst.weights).max()),
                        base=SimpleNamespace(n=inst.n,
                                             part_label=inst.labels.tolist()))
    params = sample_hash_params(g, p, seed)
    x, y, lab, pos = params.x, params.y, inst.labels.tolist(), inst.pos
    interval = {key: np.zeros(m.shape, dtype=np.int64)
                for key, m in inst.present.items()}
    for (u, v), w in zip(inst.edges.tolist(), inst.weights.tolist()):
        h = (x * w + y[u][lab[v]] + y[v][lab[u]]) % p
        if lab[u] > lab[v]:
            u, v = v, u
        interval[lab[u], lab[v]][pos[u], pos[v]] = h // length
    adm = admissible_table(p, length)
    i, j, l = inst.triples(interval)
    return int((inst.triangle_mask() & adm[i, j, l]).sum())


def solve_expectation(inst: ZeroInstance, k: int = 3) -> dict:
    """What ``solve-zero-clique --k 3 --s SOLVE_S`` must report.

    p is the smallest prime above max(k^2 W, n), as the solver documents,
    with W the largest |weight| in the file.
    """
    bound = int(np.abs(inst.weights).max())
    p = max(k * k * bound, inst.n) + 1
    while not is_prime(p):
        p += 1
    length = -(-p // SOLVE_S)
    a, b, c = inst.triples(inst.weight)
    zero = np.argwhere(inst.triangle_mask() & (a + b + c == 0))
    out = {"p": p, "s": -(-p // length), "found": len(zero) > 0,
           "zero": [sorted(int(part[i]) for part, i in zip(inst.parts, row))
                    for row in zero.tolist()]}
    if not out["found"]:
        out["buckets"] = int(admissible_table(p, length).sum())
        out["cliques"] = bucketed_candidates(inst, p, length, SOLVE_SEED)
    return out


def expectations(name: str, run_dir: Path) -> dict:
    """Every expected output of one workload's commands, and its shape."""
    n, edges = read_edges(run_dir / GRAPH)
    if name == "c4-stream":
        core = edges[(edges < C4_CORE_N).all(axis=1)]
        # Blocks are K(2,2): one 4-cycle each, no triangle, no K4.  A
        # 4-cycle-free core has no K4 either.
        if subgraph_counts(C4_CORE_N, core)["c4"]:
            raise ValueError("the c4-stream core is not 4-cycle-free")
        records = {"triangle": triangle_records(C4_CORE_N, core),
                   "c4": block_c4_records(n, edges, C4_CORE_N),
                   "clique": np.zeros((0, 4), dtype=np.int64)}
        lists = {kind: {"count": len(rec), "records": rec.tolist()}
                 for kind, rec in records.items()}
    else:
        lists = {kind: {"count": c, "records": None}
                 for kind, c in subgraph_counts(n, edges).items()}
    inst = ZeroInstance.read(run_dir / WEIGHTED)
    return {
        **lists,
        "solve": solve_expectation(inst),
        "shape": {
            "graph": {"n": n, "m": len(edges),
                      "degeneracy": degeneracy(n, edges)},
            "weighted": {"n": inst.n, "m": len(inst.edges),
                         "degeneracy": degeneracy(inst.n, inst.edges),
                         "triangles": int(inst.triangle_mask().sum())},
            "numpy": np.__version__,
        },
    }


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in WORKLOADS:
        sys.exit(__doc__)
    result = expectations(sys.argv[1], Path(sys.argv[2]))
    Path(sys.argv[3]).write_text(json.dumps(result), encoding="ascii")
