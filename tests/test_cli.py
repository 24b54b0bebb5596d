"""End-to-end runs of every CLI path, in process via main()."""

import os
import subprocess
import sys
from math import comb
from pathlib import Path
from time import perf_counter

import pytest

import arbolist
from arbolist.bench import c4_block_family
from arbolist.cli import main
from arbolist.generators import polarity_graph, random_gnm
from arbolist.graphio import read_edge_list, write_edge_list
from arbolist.listing import list_4cycles, list_kcliques, list_triangles


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_polarity_and_list_c4(tmp_path, capsys):
    path = str(tmp_path / "pol5.txt")
    code, out, _ = run(capsys, "gen", "polarity", "--q", "5", "--out", path)
    assert code == 0
    assert "31 vertices" in out

    code, out, _ = run(capsys, "list", "--input", path, "--kind", "c4")
    assert code == 0
    lines = out.splitlines()
    assert not any(ln.startswith("C4 ") for ln in lines)
    assert lines[-1].startswith("STATS pre=")
    assert "count=0" in lines[-1]


def test_gen_polarity_nonprime_fails(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "polarity", "--q", "6",
                       "--out", str(tmp_path / "x.txt"))
    assert code == 2
    assert "not prime" in err


def test_gen_gnm_deterministic(tmp_path, capsys):
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    assert run(capsys, "gen", "gnm", "--n", "30", "--m", "80", "--seed", "1",
               "--out", a)[0] == 0
    assert run(capsys, "gen", "gnm", "--n", "30", "--m", "80", "--seed", "1",
               "--out", b)[0] == 0
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


@pytest.mark.parametrize("argv, comment, header, n, m", [
    (["polarity", "--q", "5"], "polarity q=5", "n=31", 31, 90),
    (["gnm", "--n", "30", "--m", "80"], "gnm n=30 m=80 seed=0", "n=30", 30,
     80),
    (["kpartite", "--k", "3", "--n-part", "5", "--edge-prob", "0.4",
      "--seed", "2"], "kpartite k=3 n_part=5 edge_prob=0.4 seed=2", "n=15",
     15, 23),
    (["sparse-triangle", "--n-param", "500", "--sigma", "0.25"],
     "sparse-triangle n_param=500 sigma=0.25 seed=0", "n=105", 105, 187),
    (["zero-clique", "--k", "3", "--n-part", "6", "--seed", "4"],
     "zero-clique k=3 n_part=6 edge_prob=0.5 weight_bound=50 seed=4 "
     "planted=False", "n=18 k=3", 18, 61),
    (["zero-clique", "--k", "3", "--n-part", "6", "--seed", "4",
      "--planted"],
     "zero-clique k=3 n_part=6 edge_prob=0.5 weight_bound=50 seed=4 "
     "planted=True", "n=18 k=3", 18, 62),
])
def test_gen_writes_its_options_in_the_comment_line(tmp_path, capsys, argv,
                                                     comment, header, n, m):
    path = str(tmp_path / "g.txt")
    code, out, _ = run(capsys, "gen", *argv, "--out", path)
    assert code == 0
    assert out == f"wrote {path} ({n} vertices, {m} edges)\n"
    with open(path) as fh:
        assert [fh.readline(), fh.readline()] == [f"# {comment}\n",
                                                  f"# {header}\n"]


def test_list_triangles_on_k4(tmp_path, capsys):
    path = tmp_path / "k4.txt"
    path.write_text("# n=4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run(capsys, "list", "--input", str(path),
                       "--kind", "triangle")
    assert code == 0
    t_lines = [ln for ln in out.splitlines() if ln.startswith("T ")]
    assert len(t_lines) == 4
    assert "T 0 1 2" in t_lines


def test_list_clique_k2_emits_edges(tmp_path, capsys):
    path = tmp_path / "k4.txt"
    path.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run(capsys, "list", "--input", str(path),
                       "--kind", "clique", "--k", "2")
    assert code == 0
    k2 = [ln for ln in out.splitlines() if ln.startswith("K2 ")]
    assert len(k2) == 6


def test_k_goes_with_clique_kind_only(tmp_path, capsys):
    path = tmp_path / "k4.txt"
    path.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    for command in ("list", "verify"):
        for kind, extra in (("clique", ()), ("triangle", ("--k", "3")),
                            ("c4", ("--k", "4"))):
            code, out, err = run(capsys, command, "--input", str(path),
                                 "--kind", kind, *extra)
            assert code == 2, (command, kind)
            assert "--k" in err and out == ""


def test_list_count_only(tmp_path, capsys):
    path = tmp_path / "k5.txt"
    path.write_text("\n".join(f"{i} {j}" for i in range(5)
                              for j in range(i + 1, 5)) + "\n")
    code, out, _ = run(capsys, "list", "--input", str(path),
                       "--kind", "clique", "--k", "3", "--count-only")
    assert code == 0
    assert f"COUNT clique {comb(5, 3)}" in out
    assert not any(ln.startswith("K3 ") for ln in out.splitlines())


@pytest.mark.parametrize("k", [5, 10 ** 19], ids=["n-plus-1", "10e19"])
def test_clique_k_above_n_lists_nothing(tmp_path, capsys, k):
    """A clique has at most n vertices: a larger k prints no record and
    exits 0, and nothing is sized by k."""
    path = tmp_path / "k4.txt"
    path.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    for command, flags, first in (
            ("list", (), "STATS "),
            ("list", ("--count-only",), "COUNT clique 0"),
            ("verify", (), "verify clique: pass (0 records)")):
        code, out, err = run(capsys, command, "--input", str(path),
                             "--kind", "clique", "--k", str(k), *flags)
        assert (code, err) == (0, ""), (command, flags)
        assert out.splitlines()[0].startswith(first), (command, flags)
        assert not any(ln.startswith("K") for ln in out.splitlines())


_RECORD_GRAPHS = {
    "polarity5": lambda: polarity_graph(5),
    "c4blocks": lambda: c4_block_family(30, 1),
    "gnm": lambda: random_gnm(20, 110, 3),
}
_RECORD_KINDS = [("triangle", ()), ("c4", ())] + [
    ("clique", ("--k", str(k))) for k in (2, 3, 4, 5)]


def test_list_records_match_print_reference(tmp_path, capsys):
    seen = set()
    for graph, build in _RECORD_GRAPHS.items():
        path = str(tmp_path / f"{graph}.txt")
        write_edge_list(path, build())
        g = read_edge_list(path)
        for kind, extra in _RECORD_KINDS:
            code, out, _ = run(capsys, "list", "--input", path,
                               "--kind", kind, *extra)
            assert code == 0
            *records, stats = out.splitlines()
            assert stats.startswith("STATS ")

            # The writer must print what print() did, record for record.
            if kind == "triangle":
                list_triangles(g, lambda r: print("T", *r))
            elif kind == "c4":
                list_4cycles(g, lambda r: print("C4", *r))
            else:
                list_kcliques(g, int(extra[1]),
                              lambda r: print(f"K{len(r)}", *r))
            assert records == capsys.readouterr().out.splitlines(), \
                (graph, kind, extra)

            # A sink that stopped the lister early would print fewer lines
            # than the --count-only run counts.
            count = int(stats.split("count=")[1].split()[0])
            code, out, _ = run(capsys, "list", "--input", path,
                               "--kind", kind, *extra, "--count-only")
            assert code == 0
            assert out.splitlines()[0] == f"COUNT {kind} {len(records)}"
            assert len(records) == count
            if len(records) > 1:
                seen.add((kind, extra))
    assert seen == set(_RECORD_KINDS)


def test_list_reader_closing_the_pipe_exits_2_without_traceback(tmp_path):
    path = str(tmp_path / "blocks.txt")
    # About 20000 record lines, far beyond a 64 KB pipe buffer.
    write_edge_list(path, c4_block_family(20000, 1))
    src = str(Path(arbolist.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    with subprocess.Popen(
            [sys.executable, "-m", "arbolist", "list", "--input", path,
             "--kind", "c4"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline().startswith(b"C4 ")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    err = err.decode()
    assert proc.returncode == 2
    assert err.splitlines() == ["error: [Errno 32] Broken pipe"]
    assert "Traceback" not in err and "Exception ignored" not in err


def test_list_on_a_header_only_file_is_quiet(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("# n=4\n")
    code, out, err = run(capsys, "list", "--input", str(path),
                         "--kind", "triangle")
    assert (code, err) == (0, "")
    assert "count=0" in out.splitlines()[-1]


def test_list_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0 x\n")
    code, _, err = run(capsys, "list", "--input", str(path),
                       "--kind", "triangle")
    assert code == 2
    assert "bad.txt:1" in err


def test_stats_line_ends_with_the_load_time(tmp_path, capsys):
    path = tmp_path / "k4.txt"
    path.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run(capsys, "list", "--input", str(path),
                       "--kind", "triangle")
    assert code == 0
    stats = out.splitlines()[-1]
    assert stats.startswith("STATS pre=")
    fields = [kv.split("=", 1) for kv in stats.split()[1:]]
    assert [k for k, _ in fields] == ["pre", "emit", "count", "steps", "load"]
    assert float(fields[-1][1]) >= 0


@pytest.mark.parametrize("name, text, line", [
    ("id.txt", "0 1\n1 99999999999999999999\n", 2),
    ("n.txt", "# n=99999999999999999999\n0 1\n", 1),
])
def test_huge_vertex_id_or_n_fails_fast(tmp_path, capsys, name, text, line):
    path = tmp_path / name
    path.write_text(text)
    t0 = perf_counter()
    code, out, err = run(capsys, "list", "--input", str(path),
                         "--kind", "triangle")
    assert perf_counter() - t0 < 5
    assert code == 2 and out == ""
    assert f"{name}:{line}: " in err and "2**31" in err


def test_huge_weight_fails_fast(tmp_path, capsys):
    path = tmp_path / "w.txt"
    path.write_text("# n=3 k=3\n0 1 1\n0 2 1\n1 2 "
                    + "9" * 30 + "\n")
    (tmp_path / "w.txt.labels").write_text("0\n1\n2\n")
    t0 = perf_counter()
    code, out, err = run(capsys, "solve-zero-clique", "--input", str(path),
                         "--k", "3", "--s", "2")
    assert perf_counter() - t0 < 5
    assert code == 2 and out == ""
    assert "w.txt:4: weight 999" in err


def test_huge_header_k_fails_fast(tmp_path, capsys):
    path = tmp_path / "w.txt"
    path.write_text("# n=3 k=1000000000000\n0 1 1\n0 2 1\n1 2 -2\n")
    (tmp_path / "w.txt.labels").write_text("0\n1\n2\n")
    t0 = perf_counter()
    code, out, err = run(capsys, "solve-zero-clique", "--input", str(path),
                         "--k", "3", "--s", "2")
    assert perf_counter() - t0 < 1
    assert code == 2 and out == ""
    assert "w.txt:1: k=1000000000000 is above n=3" in err


def test_huge_label_fails_fast(tmp_path, capsys):
    path = tmp_path / "w.txt"
    path.write_text("# n=3\n0 1 1\n0 2 1\n1 2 -2\n")
    (tmp_path / "w.txt.labels").write_text("0\n1\n1000000000000\n")
    t0 = perf_counter()
    code, out, err = run(capsys, "solve-zero-clique", "--input", str(path),
                         "--k", "3", "--s", "2")
    assert perf_counter() - t0 < 1
    assert code == 2 and out == ""
    assert "w.txt.labels:3: label 1000000000000 is not below 256" in err


def test_verify_passes_on_corpus_graph(tmp_path, capsys):
    path = str(tmp_path / "g.txt")
    run(capsys, "gen", "gnm", "--n", "24", "--m", "70", "--seed", "5",
        "--out", path)
    for kind, extra in (("triangle", ()), ("c4", ()), ("clique", ("--k", "4"))):
        code, out, _ = run(capsys, "verify", "--input", path,
                           "--kind", kind, *extra)
        assert code == 0, kind
        assert "pass" in out


def test_verify_flags_mutated_lister(tmp_path, capsys):
    """A lister that drops one record must be reported as a mismatch."""
    from arbolist import brute_triangles
    from arbolist.cli import build_parser, cmd_verify
    import arbolist.graphio as graphio

    path = str(tmp_path / "g.txt")
    run(capsys, "gen", "gnm", "--n", "12", "--m", "30", "--seed", "2",
        "--out", path)
    g = graphio.read_edge_list(path)
    assert brute_triangles(g), "fixture needs at least one triangle"

    def dropping_lister(graph):
        records = sorted(brute_triangles(graph))
        return records[1:]

    args = build_parser().parse_args(
        ["verify", "--input", path, "--kind", "triangle"])
    code = cmd_verify(args, lister=dropping_lister)
    out = capsys.readouterr().out
    assert code == 1
    assert "1 missing" in out


@pytest.mark.parametrize("kind, name, extra", [
    ("triangle", "list_triangles", ()),
    ("c4", "list_4cycles", ()),
    ("clique", "list_kcliques", ("--k", "3")),
])
def test_list_and_verify_call_the_lister_bound_in_cli(tmp_path, capsys,
                                                      monkeypatch, kind, name,
                                                      extra):
    """A tracer rebinds the listers in arbolist.cli; both commands must
    call the rebound function, not one captured at import."""
    import arbolist.cli as cli

    real = getattr(cli, name)
    calls = []

    def recording(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, recording)
    path = str(tmp_path / "g.txt")
    write_edge_list(path, random_gnm(12, 30, 2))
    for command, flags in (("list", ()), ("list", ("--count-only",)),
                           ("verify", ())):
        code, _, _ = run(capsys, command, "--input", path, "--kind", kind,
                         *extra, *flags)
        assert code == 0
    assert calls == [name] * 3


def test_verify_too_large_exit_code(tmp_path, capsys):
    path = str(tmp_path / "big.txt")
    with open(path, "w") as fh:
        fh.write("# n=600\n")
        fh.write("0 1\n")
    code, _, err = run(capsys, "verify", "--input", path,
                       "--kind", "triangle")
    assert code == 2
    assert "exceeds" in err


def test_solve_zero_clique_planted(tmp_path, capsys):
    path = str(tmp_path / "zc.txt")
    code, _, _ = run(capsys, "gen", "zero-clique", "--k", "3",
                     "--n-part", "8", "--seed", "4", "--planted",
                     "--out", path)
    assert code == 0
    code, out, _ = run(capsys, "solve-zero-clique", "--input", path,
                       "--k", "3", "--s", "3", "--seed", "1")
    assert code == 0
    assert "found=True" in out
    zk = [ln for ln in out.splitlines() if ln.startswith("ZK ")]
    assert len(zk) == 1
    assert zk[0].endswith("sum=0")
    assert len(zk[0].split()) == 5  # ZK v1 v2 v3 sum=0


def test_solve_zero_clique_epsilon_path(tmp_path, capsys):
    path = str(tmp_path / "zc.txt")
    run(capsys, "gen", "zero-clique", "--k", "3", "--n-part", "6",
        "--seed", "9", "--out", path)
    code, out, _ = run(capsys, "solve-zero-clique", "--input", path,
                       "--k", "3", "--epsilon", "0.4", "--seed", "1")
    assert code == 0
    assert "buckets_examined=" in out
    assert "found=" in out


def test_solve_default_epsilon_takes_one_vertex_parts(tmp_path, capsys):
    path = str(tmp_path / "zc.txt")
    run(capsys, "gen", "zero-clique", "--k", "3", "--n-part", "1",
        "--out", path)
    code, out, err = run(capsys, "solve-zero-clique", "--input", path,
                         "--k", "3")
    assert (code, err) == (0, "")
    assert "s=1\n" in out and "found=False\n" in out


def test_bench_suite_writes_csv(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "bench", "--suite", "triangle-scaling",
                       "--small", "--output", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "gen,n,m,alpha_proxy,algo,pre_s,emit_s,count,steps"
    assert len(lines) == 4


def test_degeneracy_subcommand(tmp_path, capsys):
    path = tmp_path / "k5.txt"
    path.write_text("\n".join(f"{i} {j}" for i in range(5)
                              for j in range(i + 1, 5)) + "\n")
    code, out, _ = run(capsys, "degeneracy", "--input", str(path))
    assert code == 0
    assert "COUNT degeneracy 4" in out


def test_missing_input_is_usage_error(capsys):
    code, _, err = run(capsys, "list", "--input", "/nonexistent/g.txt",
                       "--kind", "triangle")
    assert code == 2
    assert err


def test_unknown_arguments_exit_2(capsys):
    code, _, _ = run(capsys, "list", "--bogus")
    assert code == 2


def test_gen_kpartite_and_sparse_triangle(tmp_path, capsys):
    p1 = str(tmp_path / "kp.txt")
    code, _, _ = run(capsys, "gen", "kpartite", "--k", "3", "--n-part", "5",
                     "--seed", "2", "--out", p1)
    assert code == 0
    import arbolist.graphio as graphio
    g = graphio.read_edge_list(p1)
    assert g.part_label is not None

    p2 = str(tmp_path / "st.txt")
    code, _, _ = run(capsys, "gen", "sparse-triangle", "--n-param", "2000",
                     "--sigma", "0.3", "--seed", "2", "--out", p2)
    assert code == 0
    assert graphio.read_edge_list(p2).n > 0
