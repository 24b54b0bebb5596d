"""Append one perfbench run to the committed performance record.

Usage, from the repository root:

    python3 tools/bench_record.py --workload zero-sweep --seed 1 \
        --seconds 40 --trace 0 [--checkout DIR]

Runs ``perfbench/run.py`` of the checkout DIR (default: this repository)
as a child with the same four arguments, and appends the result to
``BENCH_<workload>.json`` at the root of this repository, under the git
revision of DIR (suffixed ``+dirty`` when DIR's ``src/`` or
``perfbench/`` differ from that revision).  A run keeps the ``SHAPE``
line, the metrics (medians) with their units, the samples behind each
end-to-end metric, the speed-probe times, the fail ratio and the failure
lines.  A run whose child exits nonzero, or whose last line is not the
result object, is printed and not recorded.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def parse(stdout: str) -> dict:
    """The recorded fields of one run.py stdout; ValueError if unusable."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    run = {"shape": None, "samples": {}, "probes": [], "failures": []}
    for line in lines[:-1]:
        head, _, rest = line.partition(" ")
        if head == "SHAPE":
            run["shape"] = json.loads(rest)
        elif head == "SAMPLES":
            name, *values = rest.split()
            run["samples"][name] = [float(x) for x in values]
        elif head == "PROBES":
            run["probes"] = [float(x) for x in rest.split()]
        elif head == "FAILED":
            run["failures"].append(rest)
    if run["shape"] is None:
        raise ValueError("no SHAPE line")
    run.update(
        correct=result["correct"], attempted=result["attempted"],
        failed=result["failed"],
        fail_ratio=result["failed"] / result["attempted"],
        metrics={name: m["value"] for name, m in result["metrics"].items()},
        units={name: m["unit"] for name, m in result["metrics"].items()})
    return run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--checkout", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", *bench_args],
        cwd=checkout, capture_output=True, text=True)
    try:
        if child.returncode != 0:
            raise ValueError(f"exit code {child.returncode}")
        run = parse(child.stdout)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        print(f"error: run not recorded: {exc!r}", file=sys.stderr)
        return 2

    revision = git(checkout, "rev-parse", "HEAD")
    if git(checkout, "status", "--porcelain", "--", "src", "perfbench"):
        revision += "+dirty"
    run = {"recorded": datetime.now(timezone.utc).isoformat(timespec="seconds"),
           "args": bench_args, **run}
    path = ROOT / f"BENCH_{args.workload}.json"
    record = (json.loads(path.read_text()) if path.exists()
              else {"workload": args.workload, "runs": {}})
    record["runs"].setdefault(revision, []).append(run)
    path.write_text(json.dumps(record, indent=1) + "\n")
    medians = " ".join(f"{name}={value:.6g}"
                       for name, value in run["metrics"].items())
    print(f"{path.name} += {revision[:12]} trace={args.trace} "
          f"fail_ratio={run['fail_ratio']:g} {medians}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
