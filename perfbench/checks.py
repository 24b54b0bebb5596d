"""Comparison of one command's stdout with the expected output.

The expectations come from ``reference.py``, run once per benchmark run
in its own process.  This module is plain Python, so the benchmark
process that drains the children's pipes stays small.
"""

from __future__ import annotations

from typing import Optional

RECORD_TAG = {"triangle": "T", "c4": "C4", "clique": "K4"}


def check(cmd: str, text: str, expect: dict) -> tuple[Optional[str], dict]:
    """(None or the reason the output is wrong, counts that must repeat)."""
    try:
        if cmd == "solve":
            return _check_solve(text, expect["solve"])
        return _check_list(cmd, text, expect[cmd])
    except (ValueError, KeyError, IndexError, StopIteration) as exc:
        return f"unparsable output: {exc!r}", {}


def _check_list(kind: str, text: str, want: dict):
    tag = RECORD_TAG[kind]
    stats, count, records, lines = {}, None, set(), 0
    for line in text.splitlines():
        head, _, rest = line.partition(" ")
        if head == "STATS":
            stats = dict(kv.split("=", 1) for kv in rest.split())
        elif head == "COUNT":
            count = int(rest.split()[1])
        elif head == tag:
            records.add(tuple(map(int, rest.split())))
            lines += 1
        elif line:
            raise ValueError(f"unexpected line {line[:60]!r}")
    counts = {"records": int(stats["count"]), "steps": int(stats["steps"])}
    if want["records"] is None:
        if count != want["count"]:
            return f"COUNT {count}, expected {want['count']}", counts
    else:
        if count is not None:
            return "COUNT line where records were expected", counts
        expected = set(map(tuple, want["records"]))
        if lines != len(records) or records != expected:
            return (f"{lines} records ({len(records)} distinct), "
                    f"{len(records - expected)} unexpected, "
                    f"{len(expected - records)} missing"), counts
    if counts["records"] != want["count"]:
        return f"STATS count={counts['records']}, expected {want['count']}", counts
    return None, counts


def _check_solve(text: str, want: dict):
    fields = dict(line.split("=", 1) for line in text.splitlines()
                  if "=" in line and not line.startswith("ZK"))
    counts = {"p": int(fields["p"]), "s": int(fields["s"]),
              "found": fields["found"] == "True",
              "buckets": int(fields["buckets_examined"]),
              "cliques": int(fields["cliques_listed_total"])}
    for key in ("p", "s", "found", "buckets", "cliques"):
        if key in want and counts[key] != want[key]:
            return f"{key}={counts[key]}, expected {want[key]}", counts
    if counts["found"]:
        witness = next(sorted(map(int, line.split()[1:4]))
                       for line in text.splitlines() if line.startswith("ZK "))
        if witness not in want["zero"]:
            return f"witness {witness} is not a zero triangle", counts
    return None, counts
