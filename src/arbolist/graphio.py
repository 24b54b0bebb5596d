"""Plain-text edge list files.

Format: one edge per line as "u v" (or "u v w" for weighted graphs),
'#' starts a comment, blank lines are skipped.  An optional header
comment "# n=<N> k=<K>" pins the vertex count (and part count for
weighted k-partite files); without it n is max vertex id + 1.  Part
labels live in a sibling file "<path>.labels" with one integer per line,
one line per vertex, each read like a vertex id.  Fields follow ``int()``
syntax.  numpy's ``loadtxt`` converts the data rows; a file it refuses is
read line by line with ``int()``, which names the first faulty line.
Every fault names its file and line; only a missing labels file and a
wrong label count, faults of the whole file, name line 0.  Writers emit
no timestamps, so rerunning a generator produces byte-identical files.
"""

from __future__ import annotations

import re
import warnings
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
    data rows of one file as ``_rows`` gives them."""
    stripped = _lines(path)
    n, header_k = _header(path, stripped, weighted)
    linenos, ids, weights = _rows(path, stripped, 3 if weighted else 2,
                                  ID_LIMIT)
    if n is None:
        n = int(ids.max()) + 1 if len(ids) else 0
    return n, header_k, linenos, ids, weights


def _lines(path: PathLike) -> list[str]:
    return list(map(str.strip, Path(path).read_text("ascii").split("\n")))


def _rows(path: PathLike, stripped: list[str], want: int, limit: int):
    """The data rows of a file's stripped lines: their line numbers, their
    first two fields (one, for a one-field file) as an int64 array of ids
    in [0, limit) and, for a three-field file, the third as Python ints.

    numpy's reader converts the rows.  A file it refuses or warns on (no
    data rows; on numpy 1.23-1.26, a field it read as a float and cast),
    or whose rows it reads with the wrong width or an id out of range,
    is read again by ``_walk``, which names the first faulty line or, for
    the forms only ``int()`` reads (``1_000``, weights beyond int64),
    returns the rows.
    """
    linenos = [i for i, line in enumerate(stripped, 1)
               if line and line[0] != "#"]
    data = [stripped[i - 1] for i in linenos]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(data, np.int64, comments=None, ndmin=2)
    except (ValueError, Warning):
        rows = None
    if (rows is None or rows.shape[1] != want
            or rows[:, :2].min() < 0 or rows[:, :2].max() >= limit):
        rows = np.array(_walk(path, linenos, data, want, limit),
                        object).reshape(-1, want)
    weights = rows[:, 2].tolist() if want == 3 else None
    return linenos, rows[:, :2].astype(np.int64, copy=False), weights


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


def _walk(path: PathLike, linenos, data, want: int, limit: int):
    """The data lines read one at a time with ``int()``: their rows as
    lists of Python ints, or the ParseError of the first faulty line."""
    noun = "label" if want == 1 else "vertex id"
    rows = []
    for lineno, line in zip(linenos, data):
        fields = line.split()
        if len(fields) != want:
            raise ParseError(path, lineno,
                             f"expected {want} fields, got {len(fields)}")
        try:
            row = [int(f) for f in fields]
        except ValueError:
            raise ParseError(path, lineno,
                             f"non-integer field in {line!r}") from None
        if min(row[:2]) < 0:
            raise ParseError(path, lineno, f"negative {noun}")
        if max(row[:2]) >= limit:
            shown = "2**31" if limit == ID_LIMIT else limit
            raise ParseError(path, lineno, f"{noun} {max(row[:2])} "
                                           f"is not below {shown}")
        rows.append(row)
    return rows


def read_labels(path: PathLike, below: Optional[int] = None) -> dict[int, int]:
    """One label per data line, for vertices 0, 1, ... in turn.

    A label is read like a vertex id: ``int()`` syntax, non-negative and
    below ``min(below, 2**31)``.  The first faulty label fails at its line.
    """
    limit = ID_LIMIT if below is None else min(below, ID_LIMIT)
    _, labels, _ = _rows(path, _lines(path), 1, limit)
    return dict(enumerate(labels[:, 0].tolist()))


def _sibling_labels(path: PathLike, labels_path: Optional[PathLike], n: int,
                    below: Optional[int] = None) -> Optional[dict[int, int]]:
    """The labels at ``labels_path``, else in a "<path>.labels" sibling,
    else None; a labels file must have one entry per vertex."""
    if labels_path is None:
        labels_path = Path(f"{path}.labels")
        if not labels_path.exists():
            return None
    labels = read_labels(labels_path, below)
    if len(labels) != n:
        raise ParseError(path, 0,
                         f"label file has {len(labels)} entries for n={n}")
    return labels


def read_edge_list(path: PathLike,
                   labels_path: Optional[PathLike] = None) -> Graph:
    n, _, linenos, ids, _ = _parse(path, weighted=False)
    labels = _sibling_labels(path, labels_path, n)
    return _build(path, linenos, ids, n, labels)


def _build(path: PathLike, linenos, ids, n: int,
           labels: Optional[dict[int, int]]) -> Graph:
    """``from_edge_list`` on the parsed ids, its errors as ParseError at
    the line of the pair it rejects."""
    try:
        return from_edge_list(ids, n, labels)
    except (DuplicateEdgeError, SelfLoopError, VertexOutOfRangeError) as exc:
        raise ParseError(path, linenos[exc.index], str(exc))


def read_weighted_kpartite(path: PathLike,
                           labels_path: Optional[PathLike] = None
                           ) -> WeightedKPartiteGraph:
    """Read "u v w" lines plus a labels sibling into a weighted instance.

    The part count comes from the header k= field when present, else
    max label + 1.  A label must be below the header's k, or without one
    below max(n, ``PART_SLACK``); a label that is not, and an edge within
    one part, fail at their lines.  The weight bound is the largest |w|
    observed; a weight too large for the solver on k parts fails at its
    line.
    """
    n, header_k, linenos, ids, row_weights = _parse(path, weighted=True)
    below = header_k if header_k is not None else max(n, PART_SLACK)
    labels = _sibling_labels(path, labels_path, n, below)
    if labels is None:
        raise ParseError(path, 0, "weighted k-partite file needs a labels file")
    k = header_k if header_k is not None else 1 + max(labels.values(), default=0)
    base = _build(path, linenos, ids, n, labels)
    part = np.fromiter(labels.values(), np.int64, n)[ids]
    same = part[:, 0] == part[:, 1]
    if same.any():
        i = int(same.argmax())
        raise ParseError(path, linenos[i],
                         f"edge {tuple(ids[i].tolist())} lies within "
                         f"part {part[i, 0]}")
    weights = dict(zip(map(tuple, np.sort(ids, axis=1).tolist()), row_weights))
    bound = max(map(abs, row_weights), default=0)
    wg = WeightedKPartiteGraph(base, k, weights, bound)
    limit = max_weight(k)
    if bound > limit:
        i = next(i for i, w in enumerate(row_weights) if abs(w) > limit)
        raise ParseError(path, linenos[i],
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
