"""Plain-text edge list files.

Format: one edge per line as "u v" (or "u v w" for weighted graphs),
'#' starts a comment, blank lines are skipped.  An optional header
comment "# n=<N> k=<K> w=<W>" pins the vertex count (and, for weighted
k-partite files, the part count and the weight bound); without it n is
max vertex id + 1.  Part labels live in a sibling file "<path>.labels"
with one integer per line, one line per vertex, each read like a vertex
id.  Fields follow ``int()`` syntax.  numpy's ``loadtxt`` converts the
data rows; a file it refuses is read line by line with ``int()``, which
names the first faulty line.  Every fault names its file and line; only
a missing labels file and a wrong label count, faults of the whole file,
name line 0.  Writers emit no timestamps, so rerunning a generator
produces byte-identical files.
"""

from __future__ import annotations

import re
import warnings
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import listing
from .core import Graph, from_edge_list, label_array
from .errors import (
    DuplicateEdgeError,
    ParseError,
    SelfLoopError,
    VertexOutOfRangeError,
)
from .zeroclique import WeightedKPartiteGraph, max_weight

PathLike = Union[str, Path]

_HEADER = re.compile(r"#\s*n=(\d+)(?:\s+k=(\d+))?(?:\s+w=(\d+))?\s*$")
# Vertex ids and n stay below this, so a stray huge id fails at its line
# instead of sizing every per-vertex structure by it.
ID_LIMIT = 2 ** 31
# A weighted header's k sizes the solver's per-part structures.  Parts
# beyond n are empty, so k may exceed n only up to this small count.
PART_SLACK = 256


def _parse(path: PathLike, weighted: bool):
    """n (from the header, else max id + 1), the header's k and w and
    its line, then the file's lines and its data rows as ``_rows`` gives
    them."""
    lines, top, data = _lines(path)
    n, *header = _header(path, top, weighted)
    ids, weights = _rows(path, lines, data, 3 if weighted else 2, ID_LIMIT)
    if n is None:
        n = int(ids.max()) + 1 if len(ids) else 0
    return n, header, lines, ids, weights


def _lines(path: PathLike):
    """A file's lines, the lines that can hold its header, and the lines
    that hold its data rows.

    Where every '#' lies in the file's leading block of comment and blank
    lines, the header is in that block and the data lines are all lines
    after it, as they are: ``loadtxt`` skips blank lines and splits on
    the whitespace that ``str.split`` does.  Else the header may be on any
    line and the data lines are those that are neither blank nor comments.
    The first non-ASCII byte fails at its line.
    """
    try:
        text = Path(path).read_text("ascii")
    except UnicodeDecodeError:
        # Latin-1 reads each byte as one character, in the same lines.
        lines = Path(path).read_text("latin-1").split("\n")
        lineno = next(i for i, line in enumerate(lines, 1)
                      if not line.isascii())
        byte = re.search(r"[^\x00-\x7f]", lines[lineno - 1]).group()
        raise ParseError(path, lineno,
                         f"non-ASCII byte {ord(byte):#04x}") from None
    lines = text.split("\n")
    head = 0
    for line in lines:
        line = line.strip()
        if line and line[0] != "#":
            break
        head += 1
    if text.find("#", sum(map(len, lines[:head])) + head) < 0:
        return lines, lines[:head], lines[head:]
    return lines, lines, [lines[i - 1] for i in _linenos(lines)]


def _linenos(lines: list[str]) -> list[int]:
    """The numbers, from 1, of the data lines: neither blank nor comments.

    Only a fault needs them, to name the line of a row.
    """
    return [i for i, line in enumerate(map(str.strip, lines), 1)
            if line and line[0] != "#"]


def _rows(path: PathLike, lines: list[str], data: list[str], want: int,
          limit: int):
    """The data rows of a file: their first two fields (one, for a
    one-field file) as an int64 array of ids in [0, limit) and, for a
    three-field file, the third as Python ints.

    numpy's reader converts ``data``, the lines ``_lines`` gives for the
    rows.  A file it refuses or warns on (no data rows; on numpy
    1.23-1.26, a field it read as a float and cast), or whose rows it
    reads with the wrong width or an id out of range, is read again by
    ``_walk``, which names the first faulty line or, for the forms only
    ``int()`` reads (``1_000``, weights beyond int64), returns the rows.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(data, np.int64, comments=None, ndmin=2)
    except (ValueError, Warning):
        rows = None
    if (rows is None or rows.shape[1] != want
            or rows[:, :2].min() < 0 or rows[:, :2].max() >= limit):
        rows = np.array(_walk(path, lines, want, limit),
                        object).reshape(-1, want)
    weights = rows[:, 2].tolist() if want == 3 else None
    return rows[:, :2].astype(np.int64, copy=False), weights


def _header(path: PathLike, lines: list[str], weighted: bool):
    """n, k and w of the first "# n=<N> [k=<K>] [w=<W>]" line, or None
    for each, and that line's number (0 without one).

    A weighted file's k may not exceed both n and ``PART_SLACK``.
    """
    for lineno, line in enumerate(map(str.strip, lines), 1):
        match = line[:1] == "#" and _HEADER.match(line)
        if match:
            try:
                n, k, w = (g and int(g) for g in match.groups())
            except ValueError:  # more digits than int() converts
                raise ParseError(path, lineno, "a header number has too "
                                 "many digits") from None
            if n >= ID_LIMIT:
                raise ParseError(path, lineno, f"n={n} is not below 2**31")
            if weighted and k is not None and k > max(n, PART_SLACK):
                raise ParseError(path, lineno, f"k={k} is above n={n} "
                                 f"and above {PART_SLACK}")
            return n, k, w, lineno
    return None, None, None, 0


def _walk(path: PathLike, lines: list[str], want: int, limit: int):
    """The data lines read one at a time with ``int()``: their rows as
    lists of Python ints, or the ParseError of the first faulty line."""
    noun = "label" if want == 1 else "vertex id"
    rows = []
    for lineno in _linenos(lines):
        line = lines[lineno - 1].strip()
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
    lines, _, data = _lines(path)
    labels, _ = _rows(path, lines, data, 1, limit)
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
    n, _, lines, ids, _ = _parse(path, weighted=False)
    labels = _sibling_labels(path, labels_path, n)
    return _build(path, lines, ids, n, labels)


def _build(path: PathLike, lines: list[str], ids, n: int,
           labels: Optional[dict[int, int]]) -> Graph:
    """``from_edge_list`` on the parsed ids, its errors as ParseError at
    the line of the pair it rejects."""
    try:
        return from_edge_list(ids, n, labels)
    except (DuplicateEdgeError, SelfLoopError, VertexOutOfRangeError) as exc:
        raise ParseError(path, _linenos(lines)[exc.index], str(exc))


def read_weighted_kpartite(path: PathLike,
                           labels_path: Optional[PathLike] = None
                           ) -> WeightedKPartiteGraph:
    """Read "u v w" lines plus a labels sibling into a weighted instance.

    The part count comes from the header k= field when present, else
    max label + 1.  A label must be below the header's k, or without one
    below max(n, ``PART_SLACK``); a label that is not, and an edge within
    one part, fail at their lines.  The weight bound is the header's w=,
    which must lie between the largest |w| in the file and the solver's
    limit for k parts, else the header line fails.  Without w= it is the
    largest |w|, and a weight too large for the solver on k parts fails
    at its line.
    """
    n, (header_k, header_w, header_line), lines, ids, row_weights = _parse(
        path, weighted=True)
    below = header_k if header_k is not None else max(n, PART_SLACK)
    labels = _sibling_labels(path, labels_path, n, below)
    if labels is None:
        raise ParseError(path, 0, "weighted k-partite file needs a labels file")
    k = header_k if header_k is not None else 1 + max(labels.values(), default=0)
    base = _build(path, lines, ids, n, labels)
    part = label_array(base).astype(np.int64)[ids]
    same = part[:, 0] == part[:, 1]
    if same.any():
        i = int(same.argmax())
        raise ParseError(path, _linenos(lines)[i],
                         f"edge {tuple(ids[i].tolist())} lies within "
                         f"part {part[i, 0]}")
    weights = dict(zip(zip(*np.sort(ids, axis=1).T.tolist()), row_weights))
    largest = max(map(abs, row_weights), default=0)
    limit = max_weight(k)
    if header_w is not None and not largest <= header_w <= limit:
        why = (f"is below the largest |weight| {largest}" if header_w < largest
               else f"is beyond the solver's limit {limit} for k={k}")
        raise ParseError(path, header_line, f"w={header_w} {why}")
    if largest > limit:
        i = next(i for i, w in enumerate(row_weights) if abs(w) > limit)
        raise ParseError(path, _linenos(lines)[i],
                         f"weight {row_weights[i]} is beyond the solver's "
                         f"limit {limit} for k={k}")
    return WeightedKPartiteGraph(base, k, weights,
                                 largest if header_w is None else header_w)


def write_rows(fh, line: str, rows: np.ndarray) -> None:
    """Write each row of the 2-D integer array ``rows`` to ``fh`` as
    ``line % row``, one write per ``listing._BATCH`` rows."""
    for lo in range(0, len(rows), listing._BATCH):
        batch = rows[lo:lo + listing._BATCH]
        fh.write((line * len(batch)) % tuple(batch.ravel().tolist()))


def _write(path: PathLike, comment: Optional[str], header: str, line: str,
           rows: np.ndarray, labels: Optional[np.ndarray]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# {comment}\n# {header}\n" if comment else f"# {header}\n")
        write_rows(fh, line, rows)
    if labels is not None:
        with open(f"{path}.labels", "w", encoding="ascii") as fh:
            write_rows(fh, "%d\n", labels[:, None])


def write_edge_list(path: PathLike, g: Graph,
                    generator_comment: Optional[str] = None) -> None:
    """Write the graph; a labeled graph also gets a .labels sibling.  It
    must label every vertex, else MissingLabelsError and no file."""
    _write(path, generator_comment, f"n={g.n}", "%d %d\n", g.edge_array(),
           None if g.part_label is None else label_array(g))


def write_weighted_kpartite(path: PathLike, wg: WeightedKPartiteGraph,
                            generator_comment: Optional[str] = None) -> None:
    _write(path, generator_comment,
           f"n={wg.base.n} k={wg.k} w={wg.weight_bound}", "%d %d %d\n",
           np.column_stack((wg.ends, wg.w)), label_array(wg.base))
