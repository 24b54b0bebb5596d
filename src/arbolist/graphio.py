"""Plain-text edge list files.

Format: one edge per line as "u v" (or "u v w" for weighted graphs),
'#' starts a comment, blank lines are skipped.  An optional header
comment "# n=<N> k=<K>" pins the vertex count (and part count for
weighted k-partite files); without it n is max vertex id + 1.  Part
labels live in a sibling file "<path>.labels" with one integer per line,
one line per vertex.  Writers emit no timestamps, so rerunning a
generator produces byte-identical files.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .core import Graph, from_edge_list
from .errors import (
    DuplicateEdgeError,
    ParseError,
    SelfLoopError,
    VertexOutOfRangeError,
)
from .zeroclique import WeightedKPartiteGraph, max_weight

PathLike = Union[str, Path]

_HEADER = re.compile(r"#\s*n=(\d+)(?:\s+k=(\d+))?\s*$")
# Vertex ids and n stay below this, so a stray huge id fails at its line
# instead of sizing every per-vertex structure by it.
ID_LIMIT = 2 ** 31
# A weighted header's k sizes the solver's per-part structures.  Parts
# beyond n are empty, so k may exceed n only up to this small count.
PART_SLACK = 256


def _parse(path: PathLike, weighted: bool):
    """n (from the header, else max id + 1) and the header's k, then the
    data rows of one file: their line numbers, their vertex ids as an
    int64 (m, 2) array and, for a weighted file, their weights as Python
    ints.

    The rows are checked and converted in bulk; only a file that fails
    is walked row by row, to name the first faulty line.
    """
    want = 3 if weighted else 2
    with open(path, "r", encoding="ascii") as fh:
        stripped = list(map(str.strip, fh.read().split("\n")))
    n, header_k = _header(path, stripped, weighted)
    linenos = [i for i, line in enumerate(stripped, 1)
               if line and line[0] != "#"]
    data = [stripped[i - 1] for i in linenos]
    del stripped
    parsed = _bulk(data, want)
    if parsed is None:
        raise _first_fault(path, linenos, data, want)
    ids, weights = parsed
    if n is None:
        n = int(ids.max()) + 1 if len(ids) else 0
    return n, header_k, np.array(linenos), ids, weights


def _bulk(data: list[str], want: int):
    """Vertex ids and weights of the data lines, or None if one is faulty."""
    if not set(map(len, map(str.split, data))) <= {want}:
        return None
    tokens = " ".join(data).split()
    columns = [tokens[j::want] for j in range(want)]
    del tokens
    try:
        ids = np.array(columns[:2], dtype=np.int64).T
        weights = list(map(int, columns[2])) if want == 3 else None
    except (ValueError, OverflowError):
        return None
    if len(ids) and (ids.min() < 0 or ids.max() >= ID_LIMIT):
        return None
    return ids, weights


def _header(path: PathLike, stripped: list[str], weighted: bool):
    """n and k of the first "# n=<N> [k=<K>]" line, or None for each.

    A weighted file's k may not exceed both n and ``PART_SLACK``.
    """
    for lineno, line in enumerate(stripped, 1):
        match = line[:1] == "#" and _HEADER.match(line)
        if match:
            n = int(match.group(1))
            if n >= ID_LIMIT:
                raise ParseError(path, lineno, f"n={n} is not below 2**31")
            k = int(match.group(2)) if match.group(2) else None
            if weighted and k is not None and k > max(n, PART_SLACK):
                raise ParseError(path, lineno, f"k={k} is above n={n} "
                                 f"and above {PART_SLACK}")
            return n, k
    return None, None


def _first_fault(path: PathLike, linenos, data, want: int) -> ParseError:
    """The error of the first data line that fails a check, line by line."""
    for lineno, line in zip(linenos, data):
        fields = line.split()
        if len(fields) != want:
            return ParseError(path, lineno,
                              f"expected {want} fields, got {len(fields)}")
        try:
            row = [int(f) for f in fields]
        except ValueError:
            return ParseError(path, lineno, f"non-integer field in {line!r}")
        if row[0] < 0 or row[1] < 0:
            return ParseError(path, lineno, "negative vertex id")
        if max(row[:2]) >= ID_LIMIT:
            return ParseError(path, lineno,
                              f"vertex id {max(row[:2])} is not below 2**31")
    raise AssertionError("the bulk parse rejected a file with no faulty line")


def read_labels(path: PathLike, below: Optional[int] = None) -> dict[int, int]:
    """One label per data line; a label at or above ``below`` fails there."""
    labels: dict[int, int] = {}
    with open(path, "r", encoding="ascii") as fh:
        v = 0
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                label = int(line)
            except ValueError:
                raise ParseError(path, lineno, f"non-integer label {line!r}")
            if below is not None and label >= below:
                raise ParseError(path, lineno,
                                 f"label {label} is not below {below}")
            labels[v] = label
            v += 1
    return labels


def _sibling_labels(path: PathLike, labels_path: Optional[PathLike],
                    below: Optional[int] = None) -> Optional[dict[int, int]]:
    if labels_path is not None:
        return read_labels(labels_path, below)
    sibling = Path(f"{path}.labels")
    if sibling.exists():
        return read_labels(sibling, below)
    return None


def read_edge_list(path: PathLike,
                   labels_path: Optional[PathLike] = None) -> Graph:
    n, _, linenos, ids, _ = _parse(path, weighted=False)
    labels = _sibling_labels(path, labels_path)
    if labels is not None and len(labels) != n:
        raise ParseError(path, 0,
                         f"label file has {len(labels)} entries for n={n}")
    return _build(path, linenos, ids, n, labels)


def _build(path: PathLike, linenos, ids, n: int,
           labels: Optional[dict[int, int]]) -> Graph:
    """``from_edge_list`` on the parsed ids, its errors as ParseError at
    the line of the pair it rejects."""
    try:
        return from_edge_list(ids, n, labels)
    except (DuplicateEdgeError, SelfLoopError, VertexOutOfRangeError) as exc:
        raise ParseError(path, int(linenos[exc.index]), str(exc))


def read_weighted_kpartite(path: PathLike,
                           labels_path: Optional[PathLike] = None
                           ) -> WeightedKPartiteGraph:
    """Read "u v w" lines plus a labels sibling into a weighted instance.

    The part count comes from the header k= field when present, else
    max label + 1; a label not below both n and ``PART_SLACK`` fails at its
    line.  The weight bound is the largest |w| observed; a weight too
    large for the solver on k parts fails at its line.
    """
    n, header_k, linenos, ids, row_weights = _parse(path, weighted=True)
    weights = {}
    for lineno, (u, v), w in zip(linenos.tolist(), ids.tolist(), row_weights):
        key = (u, v) if u < v else (v, u)
        if key in weights and weights[key] != w:
            raise ParseError(path, lineno,
                             f"conflicting weights for edge {key}")
        weights[key] = w
    labels = _sibling_labels(path, labels_path, max(n, PART_SLACK))
    if labels is None:
        raise ParseError(path, 0, "weighted k-partite file needs a labels file")
    if len(labels) != n:
        raise ParseError(path, 0,
                         f"label file has {len(labels)} entries for n={n}")
    k = header_k if header_k is not None else 1 + max(labels.values(), default=0)
    bound = max(map(abs, row_weights), default=0)
    base = _build(path, linenos, ids, n, labels)
    try:
        wg = WeightedKPartiteGraph(base, k, weights, bound)
    except Exception as exc:
        raise ParseError(path, 0, str(exc))
    limit = max_weight(k)
    if bound > limit:
        i = next(i for i, w in enumerate(row_weights) if abs(w) > limit)
        raise ParseError(path, int(linenos[i]),
                         f"weight {row_weights[i]} is beyond the solver's "
                         f"limit {limit} for k={k}")
    return wg


def _write_labels(path: PathLike, g: Graph) -> None:
    assert g.part_label is not None
    with open(f"{path}.labels", "w", encoding="ascii") as fh:
        for v in range(g.n):
            fh.write(f"{g.part_label[v]}\n")


def write_edge_list(path: PathLike, g: Graph,
                    generator_comment: Optional[str] = None) -> None:
    """Write the graph; a labeled graph also gets a .labels sibling."""
    with open(path, "w", encoding="ascii") as fh:
        if generator_comment:
            fh.write(f"# {generator_comment}\n")
        fh.write(f"# n={g.n}\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")
    if g.part_label is not None:
        _write_labels(path, g)


def write_weighted_kpartite(path: PathLike, wg: WeightedKPartiteGraph,
                            generator_comment: Optional[str] = None) -> None:
    with open(path, "w", encoding="ascii") as fh:
        if generator_comment:
            fh.write(f"# {generator_comment}\n")
        fh.write(f"# n={wg.base.n} k={wg.k}\n")
        for u, v in wg.base.edges():
            fh.write(f"{u} {v} {wg.weight(u, v)}\n")
    _write_labels(path, wg.base)
