import re
import tempfile
import warnings
from itertools import combinations
from pathlib import Path
from time import perf_counter

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from arbolist import (
    MissingLabelsError,
    ParseError,
    WeightedKPartiteGraph,
    from_edge_list,
    pad_with_c4free,
    random_kpartite,
    random_weighted_kpartite,
)
from arbolist import graphio, listing
from arbolist.graphio import (
    ID_LIMIT,
    read_edge_list,
    read_labels,
    read_weighted_kpartite,
    write_edge_list,
    write_weighted_kpartite,
)

from arbolist.zeroclique import max_weight, solve_zero_kclique

from .conftest import complete, small_graphs


def test_round_trip_plain(tmp_path):
    g = complete(5)
    p = tmp_path / "k5.txt"
    write_edge_list(p, g)
    back = read_edge_list(p)
    assert back.n == g.n
    assert back.edge_set() == g.edge_set()


def test_round_trip_keeps_isolated_vertices(tmp_path):
    g = from_edge_list([(0, 1)], 5)
    p = tmp_path / "iso.txt"
    write_edge_list(p, g)
    assert read_edge_list(p).n == 5


def test_round_trip_labels(tmp_path):
    g = from_edge_list([(0, 1), (1, 2)], 3, {0: 0, 1: 1, 2: 0})
    p = tmp_path / "lab.txt"
    write_edge_list(p, g)
    assert (tmp_path / "lab.txt.labels").exists()
    back = read_edge_list(p)
    assert back.part_label == {0: 0, 1: 1, 2: 0}


def test_writer_rejects_a_partly_labelled_graph_before_writing(tmp_path):
    # The padding vertices 12..24 carry no label.
    g = pad_with_c4free(random_kpartite(3, 4, 0.5, 1), 1, 3)
    assert (g.n, len(g.part_label)) == (25, 12)
    p = tmp_path / "padded.txt"
    with pytest.raises(MissingLabelsError, match="vertex 12 has no part label"):
        write_edge_list(p, g)
    assert not p.exists()
    assert not (tmp_path / "padded.txt.labels").exists()


def _per_row_text(header: str, rows, labels) -> tuple[str, str]:
    """A writer's file and labels file, written one f-string per row."""
    text = "# gen\n" + header + "".join(
        " ".join(f"{x}" for x in row) + "\n" for row in rows)
    return text, "".join(f"{labels[v]}\n" for v in range(len(labels)))


@pytest.mark.parametrize("g", [
    from_edge_list([(u, v) for u in range(6) for v in range(u + 1, 6)], 6,
                   {v: v % 4 + 2 ** 40 for v in range(6)}),
    from_edge_list([], 4, {v: 0 for v in range(4)}),
    from_edge_list([], 0, {}),
    from_edge_list([(0, 1), (1, 2), (2, 3), (3, 0)], 5),
], ids=["k6-labelled", "edgeless", "n0", "unlabelled"])
def test_edge_list_writer_matches_per_row_text(tmp_path, monkeypatch, g):
    monkeypatch.setattr(listing, "_BATCH", 3)
    p = tmp_path / "g.txt"
    write_edge_list(p, g, generator_comment="gen")
    text, labels = _per_row_text(f"# n={g.n}\n", g.edges(),
                                 g.part_label or {})
    assert p.read_text() == text
    labels_path = tmp_path / "g.txt.labels"
    if g.part_label is None:
        assert not labels_path.exists()
    else:
        assert labels_path.read_text() == labels


@pytest.mark.parametrize("weights", [
    {(0, 1): 5, (0, 2): -7, (1, 3): 0, (2, 3): 11, (0, 3): 3},
    {(0, 1): 2 ** 64, (0, 2): -2 ** 63 - 1, (1, 3): 0, (2, 3): 10 ** 30,
     (0, 3): -1},
    {},
], ids=["int64", "beyond-int64", "edgeless"])
def test_weighted_writer_matches_per_row_text(tmp_path, monkeypatch, weights):
    monkeypatch.setattr(listing, "_BATCH", 3)
    base = from_edge_list(list(weights), 4, {0: 0, 1: 1, 2: 1, 3: 2})
    wg = WeightedKPartiteGraph(base, 3, weights,
                               max(map(abs, weights.values()), default=0))
    p = tmp_path / "w.txt"
    write_weighted_kpartite(p, wg, generator_comment="gen")
    rows = [(u, v, weights[u, v]) for u, v in base.edges()]
    text, labels = _per_row_text(f"# n=4 k=3 w={wg.weight_bound}\n", rows,
                                 base.part_label)
    assert p.read_text() == text
    assert (tmp_path / "w.txt.labels").read_text() == labels


def test_write_is_deterministic(tmp_path):
    g = complete(6)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    write_edge_list(p1, g, generator_comment="same")
    write_edge_list(p2, g, generator_comment="same")
    assert p1.read_bytes() == p2.read_bytes()


def test_comments_and_blank_lines_tolerated(tmp_path):
    p = tmp_path / "messy.txt"
    p.write_text("# a comment\n\n0 1\n# another\n1 2\n\n")
    g = read_edge_list(p)
    assert g.n == 3 and g.m == 2


def test_header_pins_vertex_count(tmp_path):
    p = tmp_path / "hdr.txt"
    p.write_text("# n=9\n0 1\n")
    assert read_edge_list(p).n == 9


def test_parse_error_reports_line_number(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 1\nnot numbers\n")
    with pytest.raises(ParseError) as err:
        read_edge_list(p)
    assert err.value.lineno == 2


def test_wrong_field_count_rejected(tmp_path):
    p = tmp_path / "bad2.txt"
    p.write_text("0 1 2\n")
    with pytest.raises(ParseError):
        read_edge_list(p)


def test_duplicate_edge_becomes_parse_error(tmp_path):
    p = tmp_path / "dup.txt"
    p.write_text("0 1\n1 0\n")
    with pytest.raises(ParseError):
        read_edge_list(p)


@pytest.mark.parametrize("text, line, message", [
    ("# n=3\n0 1\n1 2\n0 1\n", 4, "duplicate edge"),
    ("0 1\n\n# loop next\n2 2\n1 2\n", 4, "self"),
    ("# n=3\n0 1\n1 7\n2 2\n", 3, "7"),
])
def test_construction_error_points_at_its_line(tmp_path, text, line, message):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    with pytest.raises(ParseError) as err:
        read_edge_list(p)
    assert err.value.lineno == line
    assert message in str(err.value)


@pytest.mark.parametrize("text, line, message", [
    ("# n=3\n0 1\n1 2147483648\n", 3, "vertex id 2147483648 is not below"),
    ("0 1\n99999999999999999999 0\n", 2, "is not below 2**31"),
    ("# n=2147483648\n0 1\n", 1, "n=2147483648 is not below 2**31"),
    ("0 1\n-99999999999999999999 0\n", 2, "negative vertex id"),
    ("0 1\n0 1\x00\n", 2, "non-integer field"),
])
def test_ids_beyond_the_limit_fail_at_their_line(tmp_path, text, line, message):
    p = tmp_path / "big.txt"
    p.write_text(text)
    with pytest.raises(ParseError) as err:
        read_edge_list(p)
    assert err.value.lineno == line
    assert message in str(err.value)


_VALID = {read_edge_list: "# n=3\n0 1\n1 2\n",
          read_weighted_kpartite: "# n=3 k=3\n0 1 4\n1 2 -4\n"}


@pytest.mark.parametrize("read, name, text, line, byte", [
    (read_edge_list, "g.txt", b"# n=3\n0 1\n# caf\xc3\xa9\n1 2\n", 3, "0xc3"),
    (read_edge_list, "g.txt", b"0 1\r\n\r\n1 2\xa0\r\n", 3, "0xa0"),
    (read_edge_list, "g.txt", b"0 1\r\xff1 2\n", 2, "0xff"),
    (read_edge_list, "g.txt", b"\x800 1\n", 1, "0x80"),
    (read_weighted_kpartite, "g.txt", b"# n=3 k=3\r# w\xe9ight\r0 1 4\r",
     2, "0xe9"),
    (read_weighted_kpartite, "g.txt", b"# n=3 k=3\n0 1 4\r1 2 \xe2\x88\x924\n",
     3, "0xe2"),
    (read_edge_list, "g.txt.labels", b"0\n1\n# \xff\n2\n", 3, "0xff"),
    (read_edge_list, "g.txt.labels", b"0\n1\n2\xc2\xa0\n", 3, "0xc2"),
    (read_weighted_kpartite, "g.txt.labels", b"# part\xe9\r\n0\n1\n2\n",
     1, "0xe9"),
    (read_weighted_kpartite, "g.txt.labels", b"0\r\n\r\n1\xff\n2\n",
     3, "0xff"),
], ids=["edge-comment", "edge-row-crlf", "edge-row-after-cr", "edge-first",
        "weighted-comment-cr", "weighted-row", "labels-comment", "labels-row",
        "weighted-labels-comment", "weighted-labels-row-crlf"])
def test_a_non_ascii_byte_fails_at_its_line(tmp_path, read, name, text, line,
                                            byte):
    main = tmp_path / "g.txt"
    main.write_text(_VALID[read])
    (tmp_path / "g.txt.labels").write_text("0\n1\n2\n")
    bad = tmp_path / name
    bad.write_bytes(text)
    with pytest.raises(ParseError) as err:
        read(main)
    assert (err.value.lineno, str(err.value)) == (
        line, f"{bad}:{line}: non-ASCII byte {byte}")


@given(lines=st.lists(st.sampled_from(["0 1", "# c", "", "1 2", "x\xe9",
                                       "# caf\xe9", "\xff"]), min_size=1,
                      max_size=8),
       ends=st.lists(st.sampled_from(["\n", "\r", "\r\n"]), min_size=8,
                     max_size=8))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_non_ascii_byte_fails_at_the_line_read_text_gives(tmp_path, lines,
                                                            ends):
    # "\r\n", a lone "\r" and a lone "\n" each end one line.
    raw = "".join(map(str.__add__, lines, ends)).encode("latin-1")
    bad = re.search(rb"[\x80-\xff]", raw)
    if bad is None:
        return
    head = raw[:bad.start()]
    line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
    p = _fresh(tmp_path, "g.txt")
    p.write_bytes(raw)
    with pytest.raises(ParseError) as err:
        read_edge_list(p)
    assert str(err.value) == (f"{p}:{line}: non-ASCII byte "
                              f"{raw[bad.start()]:#04x}")


def test_integer_fields_follow_int_syntax(tmp_path):
    p = tmp_path / "syntax.txt"
    p.write_text("+0 007\n1_0 2\n")
    g = read_edge_list(p)
    assert g.n == 11 and g.edge_set() == {(0, 7), (2, 10)}


_REFERENCE_HEADER = re.compile(r"#\s*n=(\d+)(?:\s+k=(\d+))?\s*$")


def _line_by_line(path):
    """What a loader finds that reads one line at a time and adds each
    pair in turn: the (line, message) of the first fault and None, or
    None and the n and edge set it read."""
    header_n, rows = None, []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                m = _REFERENCE_HEADER.match(line)
                if m and header_n is None:
                    header_n = int(m.group(1))
                continue
            fields = line.split()
            if len(fields) != 2:
                return (lineno, f"expected 2 fields, got {len(fields)}"), None
            try:
                u, v = (int(f) for f in fields)
            except ValueError:
                return (lineno, f"non-integer field in {line!r}"), None
            if u < 0 or v < 0:
                return (lineno, "negative vertex id"), None
            if max(u, v) >= ID_LIMIT:
                return (lineno,
                        f"vertex id {max(u, v)} is not below 2**31"), None
            rows.append((lineno, u, v))
    n = header_n
    if n is None:
        n = 1 + max((max(u, v) for _, u, v in rows), default=-1)
    seen = set()
    for lineno, u, v in rows:
        for x in (u, v):
            if not x < n:
                return (lineno, f"vertex {x} out of range for n={n}"), None
        if u == v:
            return (lineno, f"self loop at vertex {u}"), None
        if (min(u, v), max(u, v)) in seen:
            return (lineno, f"duplicate edge ({u}, {v})"), None
        seen.add((min(u, v), max(u, v)))
    return None, (n, seen)


_LINES = st.one_of(
    st.tuples(st.integers(0, 7), st.integers(0, 7)).map(
        lambda p: f"{p[0]} {p[1]}"),
    st.sampled_from(["", "   ", "# a comment", "  # indented comment",
                     "# n=8", "# n=5", "\t3\t4 ", "0 1 2", "7", "x 1",
                     "-1 2", "+2 0", "2 2147483648", "1 3\x0c", "4\r5",
                     "6 5\r", "0_3 1_0"]),
)


@given(lines=st.lists(_LINES, max_size=25))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_error_line_matches_a_line_by_line_reader(tmp_path, lines):
    p = _fresh(tmp_path, "g.txt")
    p.write_text("\n".join(lines) + "\n")
    _assert_reads_as_line_by_line(p)


def _assert_reads_as_line_by_line(p):
    expected, graph = _line_by_line(p)
    if expected is None:
        g = read_edge_list(p)
        assert (g.n, g.edge_set()) == graph
        return
    with pytest.raises(ParseError) as err:
        read_edge_list(p)
    assert (err.value.lineno, str(err.value)) == (
        expected[0], f"{p}:{expected[0]}: {expected[1]}")


def _takes_the_fast_path(p) -> bool:
    """Whether ``loadtxt`` gets the lines after the leading comment block
    as they are, rather than the data lines picked out one by one."""
    lines, top, data = graphio._lines(p)
    return top + data == lines and len(top) < len(lines)


@pytest.mark.parametrize("text, fast", [
    ("# n=6\n0 1\n# late comment\n1 2\n", False),
    ("0 1\n1 2 # x\n2 3\n", False),
    ("# gen\r\n# n=5\r\n0 1\r\n\r\n2 3\r\n", True),
    ("0 1\n\n   \n\t\n1 2\n \x0b\x0c\n\x1c\x1d\n2 3 \x1f\n", True),
    ("0 1\n# n=9\n1 2\n", False),
    ("0 1\n1 2\n", True),
    ("\n  # n=7\n\n0 1\n", True),
    ("1_000 2\n0 1\n", True),
    (f"0 1\n1 {2 ** 31}\n", True),
    ("# n=4\n0 1\n\n\n  \n1 2\n\n1 0\n", True),
    ("# n=4\n0 1\n\n\t\n2 2\n", True),
    ("# n=4\n0 1\n\n\n3 4\n", True),
    ("# n=4\n0 1\n\n1 2\n# trailing\n1 0\n", False),
], ids=["comment-after-rows", "comment-after-fields", "crlf",
        "blank-and-whitespace-lines", "header-mid-file", "no-header",
        "indented-header", "underscore", "id-2**31",
        "duplicate-after-blanks", "self-loop-after-blanks",
        "beyond-n-after-blanks", "duplicate-after-a-comment"])
def test_fast_parse_reads_as_line_by_line(tmp_path, text, fast):
    p = tmp_path / "g.txt"
    p.write_text(text)
    assert _takes_the_fast_path(p) == fast
    _assert_reads_as_line_by_line(p)


def test_fast_parse_of_a_weighted_file_with_blank_lines(tmp_path):
    p = tmp_path / "w.txt"
    p.write_text("# gen\n# n=6 k=3\n0 1 5\n\n1 2 -3\r\n  \n"
                 f"2 3 {2 ** 63}\n")
    (tmp_path / "w.txt.labels").write_text("0\n1\n2\n" * 2)
    assert _takes_the_fast_path(p)
    wg = read_weighted_kpartite(p)
    assert (wg.base.n, wg.k) == (6, 3)
    assert wg.weights == {(0, 1): 5, (1, 2): -3, (2, 3): 2 ** 63}


@pytest.mark.parametrize("rows, line, message", [
    ("0 1 5\n\n\n1 0 5\n", 6, "duplicate edge (1, 0)"),
    ("0 1 5\n\n\t\n0 3 1\n", 6, "edge (0, 3) lies within part 0"),
    (f"0 1 5\n\n\n1 2 {max_weight(3) + 1}\n", 6,
     f"weight {max_weight(3) + 1} is beyond the solver's limit"),
])
def test_fast_parse_names_the_weighted_fault_line(tmp_path, rows, line,
                                                  message):
    p = tmp_path / "w.txt"
    p.write_text("# gen\n# n=6 k=3\n" + rows)
    (tmp_path / "w.txt.labels").write_text("0\n1\n2\n" * 2)
    assert _takes_the_fast_path(p)
    with pytest.raises(ParseError) as err:
        read_weighted_kpartite(p)
    assert err.value.lineno == line
    assert message in str(err.value)


@pytest.mark.parametrize("text, labels, line, message", [
    ("2\r\n\n 1 \n\x0c\n0\n", {0: 2, 1: 1, 2: 0}, None, None),
    ("2\n\n\n1\n3\n", None, 5, "label 3 is not below 3"),
    ("2\n\n1\n# late\n-1\n", None, 5, "negative label"),
])
def test_fast_parse_of_a_labels_file(tmp_path, text, labels, line, message):
    p = tmp_path / "g.txt.labels"
    p.write_text(text)
    if labels is not None:
        assert read_labels(p, 3) == labels
        return
    with pytest.raises(ParseError) as err:
        read_labels(p, 3)
    assert (err.value.lineno, message in str(err.value)) == (line, True)


def test_weighted_construction_error_points_at_its_line(tmp_path):
    p = tmp_path / "wdup.txt"
    p.write_text("# n=3 k=3\n0 1 4\n1 2 4\n1 0 4\n")
    (tmp_path / "wdup.txt.labels").write_text("0\n1\n2\n")
    with pytest.raises(ParseError) as err:
        read_weighted_kpartite(p)
    assert err.value.lineno == 4


def test_weighted_fault_before_a_conflicting_repeat_is_named_first(tmp_path):
    p = tmp_path / "w.txt"
    p.write_text("# n=4 k=2\n0 2 1\n1 1 5\n0 3 2\n0 2 7\n")
    (tmp_path / "w.txt.labels").write_text("0\n1\n1\n1\n")
    with pytest.raises(ParseError) as err:
        read_weighted_kpartite(p)
    assert err.value.lineno == 3
    assert "self loop at vertex 1" in str(err.value)


def test_weighted_conflicting_repeat_is_a_duplicate_edge(tmp_path):
    p = tmp_path / "w.txt"
    p.write_text("# n=2 k=2\n0 1 4\n1 0 5\n")
    (tmp_path / "w.txt.labels").write_text("0\n1\n")
    with pytest.raises(ParseError) as err:
        read_weighted_kpartite(p)
    assert str(err.value) == f"{p}:3: duplicate edge (1, 0)"


def test_weighted_same_part_edge_fails_at_its_line(tmp_path):
    p = tmp_path / "w.txt"
    p.write_text("# n=4 k=2\n0 1 1\n2 3 1\n0 2 1\n")
    (tmp_path / "w.txt.labels").write_text("0\n1\n0\n1\n")
    with pytest.raises(ParseError) as err:
        read_weighted_kpartite(p)
    assert err.value.lineno == 4
    assert "(0, 2)" in str(err.value)


def test_weighted_label_at_the_header_k_fails_at_its_line(tmp_path):
    p = tmp_path / "w.txt"
    p.write_text("# n=3 k=2\n0 1 1\n")
    labels = tmp_path / "w.txt.labels"
    labels.write_text("0\n1\n2\n")
    with pytest.raises(ParseError) as err:
        read_weighted_kpartite(p)
    assert (str(err.value.path), err.value.lineno) == (str(labels), 3)
    assert "label 2 is not below 2" in str(err.value)


@pytest.mark.parametrize("label, message", [
    ("-1", "negative label"),
    ("2147483648", "label 2147483648 is not below 2**31"),
    ("1.0", "non-integer field"),
])
def test_unweighted_bad_label_fails_at_its_line(tmp_path, label, message):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n1 2\n")
    labels = tmp_path / "g.txt.labels"
    labels.write_text(f"0\n# comment\n1\n{label}\n")
    with pytest.raises(ParseError) as err:
        read_edge_list(p)
    assert (str(err.value.path), err.value.lineno) == (str(labels), 4)
    assert message in str(err.value)


def test_labels_follow_int_syntax(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n1 2\n")
    (tmp_path / "g.txt.labels").write_text("+5\n007\n1_000\n")
    assert read_edge_list(p).part_label == {0: 5, 1: 7, 2: 1000}


def test_weighted_round_trip(tmp_path):
    wg = random_weighted_kpartite(3, 4, 0.6, 20, seed=2)
    p = tmp_path / "w.txt"
    write_weighted_kpartite(p, wg)
    back = read_weighted_kpartite(p)
    assert back.k == 3
    assert back.base.edge_set() == wg.base.edge_set()
    assert back.weights == wg.weights
    # The header keeps the bound, above the largest drawn |w| of 19.
    assert back.weight_bound == wg.weight_bound == 20


def test_written_instance_solves_as_in_process(tmp_path):
    """With every weight far under the bound, p still comes from the
    bound after a write and a read, as it does in process."""
    wg = random_weighted_kpartite(3, 6, 0.5, 10 ** 6, 2)
    ones = WeightedKPartiteGraph(wg.base, 3, dict.fromkeys(wg.weights, 1),
                                 wg.weight_bound)
    p = tmp_path / "w.txt"
    write_weighted_kpartite(p, ones)
    back = read_weighted_kpartite(p)
    assert back.weight_bound == 10 ** 6
    want, got = (solve_zero_kclique(x, 3, 4, 0) for x in (ones, back))
    assert want.p == got.p == 9000011


@pytest.mark.parametrize("w", [5, max_weight(3)], ids=["largest", "limit"])
def test_weighted_header_w_is_the_bound(tmp_path, w):
    p = tmp_path / "w.txt"
    p.write_text(f"# n=3 k=3 w={w}\n0 1 5\n1 2 -3\n")
    (tmp_path / "w.txt.labels").write_text("0\n1\n2\n")
    assert read_weighted_kpartite(p).weight_bound == w


@pytest.mark.parametrize("w, top, message", [
    (4, 5, "w=4 is below the largest |weight| 5"),
    (max_weight(3) + 1, 5, f"w={max_weight(3) + 1} is beyond the solver's "
                           f"limit {max_weight(3)} for k=3"),
    (max_weight(3) + 1, max_weight(3) + 1,
     f"w={max_weight(3) + 1} is beyond the solver's limit"),
], ids=["below-largest", "beyond-limit", "at-largest-beyond-limit"])
def test_weighted_header_w_out_of_range_fails_at_the_header(tmp_path, w, top,
                                                            message):
    p = tmp_path / "w.txt"
    p.write_text(f"# gen\n# n=3 k=3 w={w}\n0 1 {top}\n1 2 -3\n")
    (tmp_path / "w.txt.labels").write_text("0\n1\n2\n")
    with pytest.raises(ParseError) as err:
        read_weighted_kpartite(p)
    assert err.value.lineno == 2
    assert message in str(err.value)


@pytest.mark.parametrize("ten", ["10", "1_0"])
@pytest.mark.parametrize("last", [-5, 2 ** 63, -(2 ** 63) - 1])
def test_weights_around_int64_load_as_written(tmp_path, ten, last):
    """Weights at both int64 ends load exactly, and so do those beyond it
    that the solver takes, also on rows with ``1_000``-style ids."""
    written = {(0, 1): 2 ** 63 - 1, (2, 10): -(2 ** 63), (3, 11): 7,
               (4, 5): last}
    assert max(map(abs, written.values())) <= max_weight(3)
    p = tmp_path / "w.txt"
    p.write_text(f"# n=12 k=3\n0 1 {2 ** 63 - 1}\n{ten} 2 {-(2 ** 63)}\n"
                 f"3 11 7\n4 5 {last}\n")
    (tmp_path / "w.txt.labels").write_text("0\n1\n2\n" * 4)
    wg = read_weighted_kpartite(p)
    assert wg.weights == written
    assert all(type(w) is int for w in wg.weights.values())
    assert wg.weight_bound == max(map(abs, written.values()))


def _loadtxt_via_float(real):
    """numpy 1.23-1.26's ``loadtxt``: a field it cannot read as an integer
    is read as a float and cast, with only a DeprecationWarning."""
    def loadtxt(data, dtype, **kwargs):
        try:
            return real(data, dtype, **kwargs)
        except ValueError:
            warnings.warn("loadtxt(): Parsing an integer via a float is "
                          "deprecated.", DeprecationWarning, stacklevel=2)
            with np.errstate(invalid="ignore"):
                return real(data, np.float64, **kwargs).astype(dtype)
    return loadtxt


def test_a_loadtxt_that_reads_through_float_is_not_trusted(tmp_path,
                                                           monkeypatch):
    """Where numpy still reads integer fields through a float, the loader
    neither takes 1.0 as an id nor casts 2**63 and 10**20 to int64, and
    no warning escapes."""
    monkeypatch.setattr(np, "loadtxt", _loadtxt_via_float(np.loadtxt))
    edges = tmp_path / "g.txt"
    edges.write_text("0 1\n1.0 2\n")
    p = tmp_path / "w.txt"
    p.write_text(f"# n=3 k=3\n0 1 {2 ** 63}\n1 2 {-10 ** 20}\n")
    (tmp_path / "w.txt.labels").write_text("0\n1\n2\n")
    with pytest.warns(DeprecationWarning):
        assert np.loadtxt(["0 1.5"], np.int64).tolist() == [0, 1]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ParseError) as err:
            read_edge_list(edges)
        wg = read_weighted_kpartite(p)
    assert caught == []
    assert err.value.lineno == 2
    assert "non-integer field" in str(err.value)
    assert wg.weights == {(0, 1): 2 ** 63, (1, 2): -10 ** 20}


@pytest.mark.parametrize("text, n", [("# n=5\n", 5),
                                     ("# a comment\n\n  # another\n", 0)],
                         ids=["header-only", "comments-only"])
def test_edge_file_without_rows_loads_without_warning(tmp_path, text, n):
    p = tmp_path / "g.txt"
    p.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = read_edge_list(p)
    assert caught == []
    assert (g.n, g.m) == (n, 0)


def test_weighted_file_without_rows_loads_without_warning(tmp_path):
    p = tmp_path / "w.txt"
    p.write_text("# n=3 k=3\n")
    (tmp_path / "w.txt.labels").write_text("0\n1\n2\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        wg = read_weighted_kpartite(p)
    assert caught == []
    assert (wg.k, wg.base.m, wg.weights, wg.weight_bound) == (3, 0, {}, 0)


def test_weight_beyond_the_solvers_range_fails_at_its_line(tmp_path):
    p = tmp_path / "wbig.txt"
    p.write_text("# n=3 k=3\n0 1 4\n1 2 -10000000000000000000000000000000\n")
    (tmp_path / "wbig.txt.labels").write_text("0\n1\n2\n")
    with pytest.raises(ParseError) as err:
        read_weighted_kpartite(p)
    assert err.value.lineno == 3
    assert "weight -10000000000000000000000000000000" in str(err.value)


def test_weighted_header_k_above_n_fails_fast_at_its_line(tmp_path):
    p = tmp_path / "wk.txt"
    p.write_text("# gen\n# n=3 k=1000000000000\n0 1 4\n")
    (tmp_path / "wk.txt.labels").write_text("0\n1\n2\n")
    t0 = perf_counter()
    with pytest.raises(ParseError) as err:
        read_weighted_kpartite(p)
    assert perf_counter() - t0 < 1
    assert err.value.lineno == 2
    assert "k=1000000000000 is above n=3 and above 256" in str(err.value)


@pytest.mark.parametrize("read, header, rows", [
    (read_edge_list, "# n={}", "0 1\n"),
    (read_weighted_kpartite, "# n=3 k={} w=5", "0 1 4\n"),
    (read_weighted_kpartite, "# n=3 k=3 w={}", "0 1 4\n"),
], ids=["n", "k", "w"])
def test_header_number_past_int_digit_limit_fails_at_its_line(tmp_path, read,
                                                              header, rows):
    """A header field longer than ``int()`` converts (4300 digits by
    default) is a ParseError at the header line, not a bare ValueError."""
    p = tmp_path / "long.txt"
    p.write_text("# gen\n" + header.format("9" * 5000) + "\n" + rows)
    (tmp_path / "long.txt.labels").write_text("0\n1\n2\n")
    with pytest.raises(ParseError) as err:
        read(p)
    assert err.value.lineno == 2
    assert str(err.value) == f"{p}:2: a header number has too many digits"


@pytest.mark.parametrize("header, k", [("# n=3 k=256", 256),
                                       ("# n=300 k=300", 300)])
def test_weighted_header_k_up_to_the_limit_is_read(tmp_path, header, k):
    p = tmp_path / "wk.txt"
    p.write_text(header + "\n0 1 4\n")
    n = int(header.split()[1][2:])
    (tmp_path / "wk.txt.labels").write_text("0\n1\n" + "0\n" * (n - 2))
    assert read_weighted_kpartite(p).k == k


def test_weighted_header_k_above_the_limit_and_n_fails(tmp_path):
    p = tmp_path / "wk.txt"
    p.write_text("# n=3 k=257\n0 1 4\n")
    (tmp_path / "wk.txt.labels").write_text("0\n1\n2\n")
    with pytest.raises(ParseError) as err:
        read_weighted_kpartite(p)
    assert err.value.lineno == 1


def test_weighted_label_above_n_and_the_limit_fails_fast_at_its_line(tmp_path):
    """Without a header k, a huge label fails before it sizes anything."""
    p = tmp_path / "wl.txt"
    p.write_text("# n=3\n0 1 4\n")
    labels = tmp_path / "wl.txt.labels"
    labels.write_text("0\n# comment\n1\n1000000000000\n")
    t0 = perf_counter()
    with pytest.raises(ParseError) as err:
        read_weighted_kpartite(p)
    assert perf_counter() - t0 < 1
    assert (str(err.value.path), err.value.lineno) == (str(labels), 4)
    assert "label 1000000000000 is not below 256" in str(err.value)


@pytest.mark.parametrize("n, label, k", [(3, 255, 256), (300, 299, 300),
                                         (3, 256, None), (300, 300, None)])
def test_weighted_label_limit_is_the_header_limit(tmp_path, n, label, k):
    p = tmp_path / "wl.txt"
    p.write_text(f"# n={n}\n0 1 4\n")
    (tmp_path / "wl.txt.labels").write_text(
        "0\n1\n" + "0\n" * (n - 3) + f"{label}\n")
    if k is not None:
        assert read_weighted_kpartite(p).k == k
        return
    with pytest.raises(ParseError) as err:
        read_weighted_kpartite(p)
    assert err.value.lineno == n


def test_weighted_requires_labels(tmp_path):
    p = tmp_path / "w2.txt"
    p.write_text("0 1 5\n")
    with pytest.raises(ParseError):
        read_weighted_kpartite(p)


def test_weighted_negative_weights_survive(tmp_path):
    p = tmp_path / "w3.txt"
    p.write_text("# n=2 k=2\n0 1 -7\n")
    (tmp_path / "w3.txt.labels").write_text("0\n1\n")
    wg = read_weighted_kpartite(p)
    assert wg.weight(0, 1) == -7
    assert wg.k == 2


def test_explicit_labels_path_overrides_sibling(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n")
    other = tmp_path / "elsewhere.labels"
    other.write_text("1\n0\n")
    g = read_edge_list(p, labels_path=other)
    assert g.part_label == {0: 1, 1: 0}


def _fresh(tmp_path, name: str) -> Path:
    # One directory per example, so no stale .labels sibling is read back.
    return Path(tempfile.mkdtemp(dir=tmp_path)) / name


@st.composite
def labeled_graphs(draw):
    g = draw(small_graphs())
    if draw(st.booleans()):
        labels = draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n))
        g = from_edge_list(g.edges(), g.n, dict(enumerate(labels)))
    return g


@given(g=labeled_graphs())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_round_trip_property(tmp_path, g):
    p = _fresh(tmp_path, "g.txt")
    write_edge_list(p, g)
    back = read_edge_list(p)
    assert back.n == g.n
    assert back.edge_set() == g.edge_set()
    assert back.part_label == g.part_label


@st.composite
def weighted_graphs(draw):
    k = draw(st.integers(2, 4))
    labels = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=10))
    pairs = [(u, v) for u, v in combinations(range(len(labels)), 2)
             if labels[u] != labels[v]]
    edges = (draw(st.lists(st.sampled_from(pairs), unique=True))
             if pairs else [])
    weights = {e: draw(st.integers(-10 ** 12, 10 ** 12)) for e in edges}
    base = from_edge_list(edges, len(labels), dict(enumerate(labels)))
    bound = max((abs(w) for w in weights.values()), default=0)
    return WeightedKPartiteGraph(base, k, weights, bound)


@given(wg=weighted_graphs())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_weighted_round_trip_property(tmp_path, wg):
    p = _fresh(tmp_path, "w.txt")
    write_weighted_kpartite(p, wg)
    back = read_weighted_kpartite(p)
    assert back.k == wg.k
    assert back.base.n == wg.base.n
    assert back.base.edge_set() == wg.base.edge_set()
    assert back.weights == wg.weights
    assert back.weight_bound == wg.weight_bound
    assert back.base.part_label == wg.base.part_label
