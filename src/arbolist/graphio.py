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

from .core import Graph, from_edge_list
from .errors import ParseError
from .zeroclique import WeightedKPartiteGraph

PathLike = Union[str, Path]

_HEADER = re.compile(r"#\s*n=(\d+)(?:\s+k=(\d+))?\s*$")


def _parse_lines(path: PathLike, weighted: bool):
    """Returns (header_n, header_k, [(lineno, int fields)]) for one file."""
    header_n: Optional[int] = None
    header_k: Optional[int] = None
    rows: list[tuple[int, list[int]]] = []
    want = 3 if weighted else 2
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                m = _HEADER.match(line)
                if m and header_n is None:
                    header_n = int(m.group(1))
                    header_k = int(m.group(2)) if m.group(2) else None
                continue
            fields = line.split()
            if len(fields) != want:
                raise ParseError(path, lineno,
                                 f"expected {want} fields, got {len(fields)}")
            try:
                row = [int(f) for f in fields]
            except ValueError:
                raise ParseError(path, lineno, f"non-integer field in {line!r}")
            if row[0] < 0 or row[1] < 0:
                raise ParseError(path, lineno, "negative vertex id")
            rows.append((lineno, row))
    return header_n, header_k, rows


def read_labels(path: PathLike) -> dict[int, int]:
    labels: dict[int, int] = {}
    with open(path, "r", encoding="ascii") as fh:
        v = 0
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                labels[v] = int(line)
            except ValueError:
                raise ParseError(path, lineno, f"non-integer label {line!r}")
            v += 1
    return labels


def _sibling_labels(path: PathLike,
                    labels_path: Optional[PathLike]) -> Optional[dict[int, int]]:
    if labels_path is not None:
        return read_labels(labels_path)
    sibling = Path(f"{path}.labels")
    if sibling.exists():
        return read_labels(sibling)
    return None


def read_edge_list(path: PathLike,
                   labels_path: Optional[PathLike] = None) -> Graph:
    header_n, _, rows = _parse_lines(path, weighted=False)
    pairs = [(r[0], r[1]) for _, r in rows]
    n = header_n
    if n is None:
        n = 1 + max((max(u, v) for u, v in pairs), default=-1)
    labels = _sibling_labels(path, labels_path)
    if labels is not None and len(labels) != n:
        raise ParseError(path, 0,
                         f"label file has {len(labels)} entries for n={n}")
    return _build(path, rows, pairs, n, labels)


def _build(path: PathLike, rows, pairs, n: int,
           labels: Optional[dict[int, int]]) -> Graph:
    """``from_edge_list`` on the parsed pairs, its errors as ParseError."""
    try:
        return from_edge_list(pairs, n, labels)
    except Exception as exc:
        raise ParseError(path, _rejected_line(rows, n), str(exc))


def _rejected_line(rows, n: int) -> int:
    """Line of the first row ``from_edge_list`` rejects, or 0 if none.

    Replays the rows through it one at a time; runs only after a build
    has failed, so loading a good file pays nothing for it.
    """
    at = 0

    def replay():
        nonlocal at
        for at, r in rows:
            yield r[0], r[1]

    try:
        from_edge_list(replay(), n)
    except Exception:
        return at
    return 0


def read_weighted_kpartite(path: PathLike,
                           labels_path: Optional[PathLike] = None
                           ) -> WeightedKPartiteGraph:
    """Read "u v w" lines plus a labels sibling into a weighted instance.

    The part count comes from the header k= field when present, else
    max label + 1.  The weight bound is the largest |w| observed.
    """
    header_n, header_k, rows = _parse_lines(path, weighted=True)
    pairs = [(r[0], r[1]) for _, r in rows]
    weights = {}
    for lineno, r in rows:
        key = (r[0], r[1]) if r[0] < r[1] else (r[1], r[0])
        if key in weights and weights[key] != r[2]:
            raise ParseError(path, lineno,
                             f"conflicting weights for edge {key}")
        weights[key] = r[2]
    n = header_n
    if n is None:
        n = 1 + max((max(u, v) for u, v in pairs), default=-1)
    labels = _sibling_labels(path, labels_path)
    if labels is None:
        raise ParseError(path, 0, "weighted k-partite file needs a labels file")
    if len(labels) != n:
        raise ParseError(path, 0,
                         f"label file has {len(labels)} entries for n={n}")
    k = header_k if header_k is not None else 1 + max(labels.values(), default=0)
    bound = max((abs(w) for w in weights.values()), default=0)
    base = _build(path, rows, pairs, n, labels)
    try:
        return WeightedKPartiteGraph(base, k, weights, bound)
    except Exception as exc:
        raise ParseError(path, 0, str(exc))


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
