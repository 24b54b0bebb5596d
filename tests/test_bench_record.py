import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


RESULT = {"correct": True, "attempted": 10, "failed": 1,
          "metrics": {"solve_s": {"value": 0.2, "unit": "s"},
                      "peak_rss_mb": {"value": 50.0, "unit": "MB"}}}
STDOUT = "\n".join([
    "perfbench zero-sweep seed=1 trace=0: 2 rounds in about 1 s",
    'SHAPE {"git": "abc", "src_lines": 10}',
    "METRIC solve_s 0.2 s",
    "UNSCALED solve_s 0.21 s",
    "SAMPLES solve_s 0.190000 0.210000",
    "PROBES 0.300000 0.310000 0.290000",
    "FAIL_RATIO 1/10 = 0.1",
    "FAILED solve: exit code 1: boom",
    json.dumps(RESULT),
]) + "\n"


def test_parse_keeps_shape_medians_samples_probes_and_fail_ratio(tool):
    run = tool.parse(STDOUT)
    assert run["shape"] == {"git": "abc", "src_lines": 10}
    assert run["metrics"] == {"solve_s": 0.2, "peak_rss_mb": 50.0}
    assert run["units"] == {"solve_s": "s", "peak_rss_mb": "MB"}
    assert run["samples"] == {"solve_s": [0.19, 0.21]}
    assert run["probes"] == [0.3, 0.31, 0.29]
    assert run["fail_ratio"] == 0.1
    assert run["failures"] == ["solve: exit code 1: boom"]


@pytest.mark.parametrize("text", ["", "no json here\n",
                                  json.dumps(RESULT) + "\n"])
def test_parse_rejects_output_without_result_or_shape(tool, text):
    with pytest.raises(ValueError):
        tool.parse(text)


def _checkout(path: Path, stdout: str, code: int = 0) -> Path:
    """A git checkout whose perfbench/run.py prints ``stdout``."""
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(
        f"import sys\nsys.stdout.write({stdout!r})\nsys.exit({code})\n")
    for args in (["init", "-q"], ["add", "-A"],
                 ["-c", "user.name=t", "-c", "user.email=t@t", "commit",
                  "-q", "-m", "x"]):
        subprocess.run(["git", "-C", str(path), *args], check=True)
    return path


def test_main_appends_runs_under_the_revision(tool, tmp_path, monkeypatch):
    checkout = _checkout(tmp_path / "tree", STDOUT)
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    args = ["--workload", "zero-sweep", "--seed", "1", "--seconds", "1",
            "--trace", "0", "--checkout", str(checkout)]
    assert tool.main(args) == 0
    (checkout / "perfbench" / "run.py").write_text(
        (checkout / "perfbench" / "run.py").read_text() + "\n")
    assert tool.main(args) == 0
    record = json.loads((tmp_path / "BENCH_zero-sweep.json").read_text())
    revision = subprocess.run(["git", "-C", str(checkout), "rev-parse",
                               "HEAD"], capture_output=True,
                              text=True).stdout.strip()
    assert record["workload"] == "zero-sweep"
    assert list(record["runs"]) == [revision, revision + "+dirty"]
    (run,) = record["runs"][revision]
    assert run["args"] == args[:8]
    assert run["metrics"]["solve_s"] == 0.2


def test_main_records_nothing_for_a_failed_run(tool, tmp_path, monkeypatch,
                                               capsys):
    checkout = _checkout(tmp_path / "tree", STDOUT, code=2)
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    assert tool.main(["--workload", "zero-sweep", "--seed", "1",
                      "--seconds", "1", "--trace", "0",
                      "--checkout", str(checkout)]) == 2
    assert "not recorded" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_zero-sweep.json").exists()
