"""Benchmark of the arbolist CLI, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload c4-stream --seed 1 --seconds 40 --trace 0

A run generates the workload's input files from the seed, derives every
expected output with numpy, then repeats rounds for about ``--seconds``:
each round generates the inputs again and runs the four CLI commands.
Each command runs in its own child process while this process drains
its pipe, one child at a time, and every output is checked.

* ``--trace 0``: the children are the plain CLI (``python3 -m arbolist``)
  and the end-to-end metrics are reported.  The speed probe runs before
  each timed child and once after the last; each timing is scaled to
  the machine's speed as the probes just before and after it measured
  it, and the metric is the median over the run.
* ``--trace 1``: each command runs once plain and once under
  ``traced_cli.py``, which records spans around arbolist's layer
  functions; the per-layer metrics are reported.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` (commands that exited nonzero or printed a
wrong output) and ``metrics``.  The lines before it give the workload
shape, every metric with its unit, the raw samples, and each failure.
DESIGN.md explains the workloads and which end-to-end metric each layer
metric moves.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter
from typing import Optional

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_run"
PY = sys.executable
# Timings are reported in seconds at the machine speed at which
# speed_probe.py takes this long, about its median on the 2-core machine
# the benchmark was written on.  A timing is multiplied by PROBE_REF_S
# over the mean wall of the probes just before and just after it.
PROBE_REF_S = 0.3
CHILD_TIMEOUT_S = 150

E2E_UNITS = {
    "setup_s": "s", "triangle_s": "s", "c4_s": "s", "clique_s": "s",
    "solve_s": "s", "first_record_s": "s", "peak_rss_mb": "MB",
}
LISTERS = {"triangle": "list_triangles", "c4": "list_4cycles",
           "clique": "list_kcliques"}
# Exponent of the degeneracy in each lister's work bound m * d^e.
WORK_EXPONENT = {"triangle": 1, "c4": 1, "clique": 2}
LIST_LAYER_UNITS = {
    "wall_s": "s", "pre_s": "s", "emit_s": "s", "sink_s": "s",
    "steps": "count", "records": "count", "ns_per_step": "ns",
    "steps_per_mdk": "ratio",
}
LAYER_UNITS = {
    "generators.gen_s": "s", "graphio.write_s": "s",
    "graphio.read_s": "s", "graphio.parse_s": "s", "core.build_s": "s",
    "graphio.read_weighted_s": "s",
    "core.order_s": "s", "core.degeneracy": "count",
    **{f"listing.{kind}.{key}": unit for kind in LISTERS
       for key, unit in LIST_LAYER_UNITS.items()},
    "cli.startup_s": "s", "cli.output_s": "s",
    "primes.next_prime_s": "s",
    "zeroclique.hash_s": "s", "zeroclique.keys_s": "s",
    "zeroclique.buckets": "count", "zeroclique.extract_s": "s",
    "zeroclique.extract_us_per_kept_edge": "us",
    "zeroclique.search_s": "s", "zeroclique.check_s": "s",
    "zeroclique.candidates": "count", "zeroclique.bucket_m_mean": "count",
    "zeroclique.bucket_m_max": "count", "zeroclique.bucket_s_p50": "s",
    "zeroclique.bucket_s_p95": "s",
    "trace.overhead_ratio": "ratio", "src.lines": "lines",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Child:
    spawned: float     # perf_counter just before the spawn
    wall: float
    first_line: float  # until the first stdout line could be read
    rss_mb: float
    code: int
    out: str
    err: str
    probe: int = -1    # index of the speed probe run just before, if any


def spawn(argv: list[str], env: dict, err_path: Path) -> Child:
    """Run one child to completion, draining its stdout as it comes."""
    with open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=env, cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        t_first = perf_counter()
        rest = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        t_end = perf_counter()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Child(t0, t_end - t0, t_first - t0, usage.ru_maxrss / 1024, code,
                 (first + rest).decode("ascii", "replace"),
                 err_path.read_text("ascii", "replace"))


def command_layers(cmd: str, child: Child, doc: dict, shape: dict) -> dict:
    """Per-layer values of one traced command, keyed by metric name.

    ``startup`` runs from the spawn until ``arbolist.cli`` is imported;
    ``output`` is the rest of the wall time outside the top-level spans
    (argument parsing, the final flush, interpreter exit) less the
    tracer's own work: importing and installing it, and writing the
    spans.  By construction startup + tracer + top-level spans + output
    + dump = wall; the checks are that no part is negative and that
    every span nests inside its parent.
    """
    tree = tracing.SpanTree(doc["spans"])
    marks = doc["marks"]
    errors = tree.nesting_errors()
    top = tree.top()
    if any(tree.spans[i][1] < marks["installed"]
           or tree.spans[i][2] > marks["main_end"] for i in top):
        errors.append("a top-level span lies outside the command")
    startup = marks["ready"] - child.spawned
    tracer = marks["installed"] - marks["ready"]
    output = (child.wall - startup - tracer
              - sum(tree.duration(i) for i in top) - doc["dump_s"])
    if startup < 0 or output < 0:
        errors.append(f"spans exceed the wall time (startup={startup:.6f}, "
                      f"output={output:.6f})")
    if errors:
        raise ValueError("; ".join(sorted(set(errors))))
    out = {"startup": startup, "output": output}
    if cmd == "solve":
        out["read"] = tree.total("graphio.read_weighted_kpartite")
        out.update(solver_layers(tree))
        return out

    reads = tree.find("graphio.read_edge_list", outermost=True)
    out["read"] = sum(tree.duration(i) for i in reads)
    out["build"] = sum(tree.total("core.from_edge_list", i) for i in reads)
    (lister,) = tree.find(f"listing.{LISTERS[cmd]}", outermost=True)
    pre, emit, records, steps = tree.spans[lister][4]
    wall = tree.duration(lister)
    orders = tree.find("core.degeneracy_ordering", lister, outermost=True)
    out["order"] = sum(tree.duration(i) for i in orders)
    out["degeneracy"] = tree.spans[orders[0]][4] if orders else None
    work = shape["m"] * shape["degeneracy"] ** WORK_EXPONENT[cmd]
    prefix = f"listing.{cmd}."
    out.update({
        prefix + "wall_s": wall, prefix + "pre_s": pre,
        prefix + "emit_s": emit, prefix + "sink_s": tree.total("sink", lister),
        prefix + "steps": steps, prefix + "records": records,
        prefix + "ns_per_step": wall * 1e9 / steps if steps else 0.0,
        prefix + "steps_per_mdk": steps / work if work else 0.0,
    })
    return out


def solver_layers(tree) -> dict:
    solves = tree.find("zeroclique.solve_zero_kclique", outermost=True)
    if not solves:
        raise ValueError("no solve_zero_kclique span")
    solve = solves[0]
    extracts = tree.find("zeroclique.extract_bucket", solve, outermost=True)
    searches = tree.find("listing.list_kcliques", solve, outermost=True)
    kept = [tree.spans[i][4][1] for i in extracts]
    extract_s = sum(tree.duration(i) for i in extracts)
    per_bucket = [tree.duration(e) + tree.duration(s)
                  for e, s in zip(extracts, searches)]
    return {
        "primes.next_prime_s": tree.total("primes.next_prime_above", solve),
        "zeroclique.hash_s": tree.total("zeroclique.hash_weights", solve),
        "zeroclique.keys_s": tree.total("zeroclique.admissible_tuples", solve),
        "zeroclique.buckets": len(extracts),
        "zeroclique.extract_s": extract_s,
        "zeroclique.extract_us_per_kept_edge":
            extract_s * 1e6 / sum(kept) if sum(kept) else 0.0,
        "zeroclique.search_s": sum(tree.duration(i) for i in searches),
        "zeroclique.check_s": tree.total("sink", solve),
        "zeroclique.candidates": len(tree.find("sink", solve, outermost=True)),
        "zeroclique.bucket_m_mean": sum(kept) / len(kept) if kept else 0.0,
        "zeroclique.bucket_m_max": max(kept, default=0),
        "zeroclique.bucket_s_p50": median(per_bucket) if per_bucket else 0.0,
        "zeroclique.bucket_s_p95":
            quantiles(per_bucket, n=20)[18] if len(per_bucket) > 1 else 0.0,
    }


def round_layers(layers: dict) -> dict:
    """Combine one round's per-command values into the per-layer metrics."""
    lists = [layers[cmd] for cmd in LISTERS]
    out = {
        "graphio.read_s": median(x["read"] for x in lists),
        "graphio.parse_s": median(x["read"] - x["build"] for x in lists),
        "core.build_s": median(x["build"] for x in lists),
        "graphio.read_weighted_s": layers["solve"]["read"],
        "core.order_s": sum(x["order"] for x in lists),
        "core.degeneracy": layers["triangle"]["degeneracy"],
        "cli.startup_s": median(x["startup"] for x in layers.values()),
        "cli.output_s": sum(x["output"] for x in layers.values()),
    }
    for x in layers.values():
        out.update((k, v) for k, v in x.items() if "." in k)
    return out


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted(SRC.rglob("*.py")))


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_revision() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else None


def files_digest(run_dir: Path) -> str:
    """Digest of the input files and their .labels siblings."""
    h = hashlib.sha256()
    for p in sorted(p for name in (workloads.GRAPH, workloads.WEIGHTED)
                    for p in run_dir.glob(name + "*")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


class Run:
    def __init__(self, workload, seed: int, run_dir: Path):
        self.w = workload
        self.seed = seed
        self.run_dir = run_dir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        # numpy's BLAS starts a thread per core at import; no child does
        # linear algebra, and the extra threads only add start-up noise.
        self.env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        self.args = workloads.command_args(workload, str(run_dir))
        self.attempted = 0
        self.failures: list[str] = []
        self.counts: dict[str, dict] = {}
        self.setups: list[tuple[Child, Optional[dict]]] = []
        self.probes: list[float] = []
        self.probe_out = None
        self.inputs_digest = None
        self.expect = None

    def spawn(self, argv: list[str], probed: bool = False) -> Child:
        """Run a child; with ``probed``, run the speed probe just before."""
        if probed:
            self.probe()
        child = spawn(argv, self.env, self.run_dir / "stderr.txt")
        if probed:
            child.probe = len(self.probes) - 1
        return child

    def record(self, label: str, child: Child, reason: Optional[str]) -> None:
        self.attempted += 1
        if child.code != 0:
            tail = child.err.strip().splitlines()[-1:] or [""]
            reason = f"exit code {child.code}: {tail[0][:200]}"
        if reason:
            self.failures.append(f"{label}: {reason}")

    def warm_up(self) -> None:
        """Import the package once, so no timed child compiles bytecode."""
        child = self.spawn([PY, "-c", "import arbolist.cli, arbolist.bench"])
        if child.code != 0:
            raise BenchError(f"cannot import arbolist from {SRC}: "
                             f"{child.err.strip()[-300:]}")

    def probe(self) -> None:
        """Run the speed probe once and keep its wall time."""
        child = self.spawn([PY, str(BENCH / "speed_probe.py")])
        if child.code != 0:
            raise BenchError(f"speed probe failed: {child.err.strip()[-300:]}")
        if self.probe_out is None:
            self.probe_out = child.out
        if child.out != self.probe_out:
            raise BenchError("speed probe output changed within the run")
        self.probes.append(child.wall)

    def set_up(self, traced: bool, probed: bool = False) -> None:
        """Generate the inputs once more; every copy must be the same."""
        i = len(self.setups)
        argv = [PY, str(BENCH / "make_inputs.py"), self.w.name,
                str(self.seed), str(self.run_dir)]
        spans = self.run_dir / f"setup{i}.spans"
        if traced:
            argv.append(str(spans))
        child = self.spawn(argv, probed)
        if child.code != 0:
            raise BenchError(f"input generation failed: "
                             f"{child.err.strip()[-300:]}")
        digest = files_digest(self.run_dir)
        if self.inputs_digest is None:
            self.inputs_digest = digest
        self.record("setup", child, None if digest == self.inputs_digest
                    else "inputs differ between set-ups of one seed")
        self.setups.append((child, tracing.load(spans) if traced else None))

    def load_expectations(self) -> None:
        """Derive every expected output in a separate, untimed process."""
        out = self.run_dir / "expected.json"
        child = self.spawn([PY, str(BENCH / "reference.py"), self.w.name,
                            str(self.run_dir), str(out)])
        if child.code != 0:
            raise BenchError(f"reference computation failed: "
                             f"{child.err.strip()[-300:]}")
        self.expect = json.loads(out.read_text())

    def command(self, cmd: str, traced: bool,
                probed: bool = False) -> tuple[Child, Optional[dict]]:
        spans = self.run_dir / f"{cmd}.spans"
        if traced:
            argv = [PY, str(BENCH / "traced_cli.py"), str(spans), "--",
                    *self.args[cmd]]
        else:
            argv = [PY, "-m", "arbolist", *self.args[cmd]]
        child = self.spawn(argv, probed)
        reason, counts, layers = None, {}, None
        if child.code == 0:
            reason, counts = checks.check(cmd, child.out, self.expect)
        if counts:
            first = self.counts.setdefault(cmd, counts)
            if counts != first and not reason:
                reason = f"counts {counts} differ from an earlier round {first}"
        if traced and child.code == 0 and not reason:
            try:
                layers = command_layers(cmd, child, tracing.load(spans),
                                        self.expect["shape"]["graph"])
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                reason = f"span accounting: {exc}"
            else:
                want = self.expect["shape"]["graph"]["degeneracy"]
                if cmd == "triangle" and layers["degeneracy"] != want:
                    reason = (f"ordering degeneracy {layers['degeneracy']}, "
                              f"expected {want}")
        self.record(f"{cmd} traced" if traced else cmd, child, reason)
        return child, layers

    def compare_with_earlier_runs(self, inputs: str, src: str) -> None:
        """Counts must repeat exactly across runs of one input and source.

        The key holds a digest of ``src/``, so a revision that changes a
        lister's step count is compared only with runs of itself.
        """
        path = (RUNS / "counts"
                / f"{self.w.name}-{self.seed}-{inputs[:16]}-{src[:16]}.json")
        if path.exists():
            earlier = json.loads(path.read_text())
            for cmd, counts in self.counts.items():
                if earlier.get(cmd) != json.loads(json.dumps(counts)):
                    self.failures.append(
                        f"{cmd}: counts {counts} differ from an earlier run "
                        f"{earlier.get(cmd)}")
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(self.counts, sort_keys=True))


def measure(run: Run, seconds: float, trace: bool):
    """Rounds of a set-up and the four commands, for about ``seconds``.

    Without ``trace``, the speed probe runs before each of them and once
    after the last round, so every timed child lies between two probes.
    """
    rounds = []
    start = perf_counter()
    # Start another round only while one of average length still fits.
    while not rounds or ((perf_counter() - start) / len(rounds)
                         * (len(rounds) + 1)) <= seconds:
        run.set_up(trace, probed=not trace)
        plain, traced = {}, {}
        for cmd in workloads.COMMANDS:
            if not trace:
                plain[cmd], _ = run.command(cmd, False, probed=True)
                continue
            # Alternate which of the pair goes first, round by round.
            for t in (False, True) if len(rounds) % 2 == 0 else (True, False):
                if t:
                    traced[cmd] = run.command(cmd, True)
                else:
                    plain[cmd], _ = run.command(cmd, False)
        rounds.append((plain, traced))
    if not trace:
        run.probe()
    return rounds


def e2e_samples(setups, rounds, probes,
                scaled: bool = True) -> dict[str, list[float]]:
    """Every sample of each end-to-end metric; the metric is the median.

    With ``scaled``, each timing is multiplied by PROBE_REF_S over the
    mean of the probes just before and after its child.  The first
    set-up, before the reference and the first probe, is not a sample.
    """
    def f(child: Child) -> float:
        if not scaled:
            return 1.0
        return PROBE_REF_S / ((probes[child.probe]
                               + probes[child.probe + 1]) / 2)

    samples = {
        "setup_s": [float(child.out.split("setup_s=")[1]) * f(child)
                    for child, _ in setups[1:]],
        **{f"{cmd}_s": [plain[cmd].wall * f(plain[cmd])
                        for plain, _ in rounds]
           for cmd in workloads.COMMANDS},
        "first_record_s": [plain["c4"].first_line * f(plain["c4"])
                           for plain, _ in rounds],
        "peak_rss_mb": [max(c.rss_mb for c in plain.values())
                        for plain, _ in rounds],
    }
    return {name: samples[name] for name in E2E_UNITS}



def layer_metrics(setups, rounds) -> dict:
    per_round = [round_layers({cmd: layers for cmd, (_, layers) in t.items()})
                 for _, t in rounds
                 if all(layers for _, layers in t.values())]
    if not per_round:
        return {}
    # Counts repeat exactly from round to round; times take the median.
    values = {name: per_round[0][name] if LAYER_UNITS[name] == "count"
              else median(r[name] for r in per_round) for name in per_round[0]}
    plain = sum(median(p[cmd].wall for p, _ in rounds)
                for cmd in workloads.COMMANDS)
    traced = sum(median(t[cmd][0].wall for _, t in rounds)
                 for cmd in workloads.COMMANDS)
    trees = [tracing.SpanTree(doc["spans"]) for _, doc in setups]
    values.update({
        "generators.gen_s": median(t.total("setup.generate") for t in trees),
        "graphio.write_s": median(t.total("graphio.write_edge_list")
                                  + t.total("graphio.write_weighted_kpartite")
                                  for t in trees),
        "trace.overhead_ratio": traced / plain,
        "src.lines": src_lines(),
    })
    return {name: values[name] for name in LAYER_UNITS}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"have {sorted(workloads.WORKLOADS)}")
    if not (SRC / "arbolist" / "cli.py").is_file():
        print(f"error: no arbolist sources under {SRC}", file=sys.stderr)
        return 2

    run_dir = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        return bench(args, run_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def bench(args, run_dir: Path) -> int:
    trace = bool(args.trace)
    run = Run(workloads.WORKLOADS[args.workload], args.seed, run_dir)
    run.warm_up()
    run.set_up(trace)
    digest = run.inputs_digest
    run.load_expectations()
    rounds = measure(run, args.seconds, trace)
    setups = run.setups
    src = src_digest()
    run.compare_with_earlier_runs(digest, src)

    samples, raw = {}, {}
    if trace:
        values, units = layer_metrics(setups, rounds), LAYER_UNITS
    else:
        samples, units = e2e_samples(setups, rounds, run.probes), E2E_UNITS
        values = {name: median(v) for name, v in samples.items()}
        raw = {name: median(v) for name, v in
               e2e_samples(setups, rounds, run.probes, False).items()}
    shape = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "setups": len(setups),
        **run.expect["shape"], "counts": run.counts, "inputs_sha256": digest,
        "python": platform.python_version(),
        "bench_peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "git": git_revision(), "src_sha256": src,
        "src_lines": src_lines(), "nproc": os.cpu_count(),
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(rounds)} rounds in about {args.seconds:g} s")
    print("SHAPE " + json.dumps(shape, sort_keys=True))
    for name, value in values.items():
        print(f"METRIC {name} {value} {units[name]}")
    for name, value in raw.items():
        if units[name] == "s":
            print(f"UNSCALED {name} {value} s")
    for name, v in samples.items():
        print(f"SAMPLES {name} {' '.join(f'{x:.6f}' for x in v)}")
    if run.probes:
        print(f"PROBES {' '.join(f'{x:.6f}' for x in run.probes)}")
    failed = len(run.failures)
    print(f"FAIL_RATIO {failed}/{run.attempted} = {failed / run.attempted}")
    for failure in run.failures:
        print(f"FAILED {failure}")
    complete = set(values) == set(units)
    if not complete:
        print(f"FAILED metrics missing: {sorted(set(units) - set(values))}")
    print(json.dumps({
        "correct": failed == 0 and complete,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
