"""ci/compare_outputs.py: the report of two small output trees, and the
record of the figures benchmark's source-case values."""

import os
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

from fracorder.forward import build_example_4_2, trace_source
from fracorder.specfun import OrderSpec

SCRIPT = Path(__file__).resolve().parents[1] / "ci" / "compare_outputs.py"


def _compare(a: Path, b: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), "compare", str(a), str(b)], capture_output=True, text=True
    )


def test_compare_reports_cells_lines_and_missing_files(tmp_path):
    a = tmp_path / "a"
    (a / "fit").mkdir(parents=True)
    (a / "fit" / "table.csv").write_text("T0,alpha2,status\n1e-06,2.0,ok\n1e-05,0.7,ok\n")
    (a / "fit" / "exit-codes.txt").write_text("table1a 0\n")
    (a / "check.txt").write_text("PASS  one\nPASS  two\n")
    b = tmp_path / "b"
    shutil.copytree(a, b)

    run = _compare(a, b)
    assert run.returncode == 0, run.stdout
    assert "fit/table.csv: 0 cells differ, largest relative difference 0," in run.stdout
    assert "check.txt: 0 lines differ" in run.stdout
    assert run.stdout.endswith("0 of 3 files differ\n")

    # one numeric cell moves from 2.0 to 2.5: relative difference 0.5 / 2.5
    (b / "fit" / "table.csv").write_text("T0,alpha2,status\n1e-06,2.5,ok\n1e-05,0.7,ok\n")
    run = _compare(a, b)
    assert run.returncode == 1
    assert "fit/table.csv: 1 cells differ, largest relative difference 0.2, 0 differing" in run.stdout

    shutil.rmtree(b)
    shutil.copytree(a, b)
    (b / "check.txt").unlink()
    run = _compare(a, b)
    assert run.returncode == 1
    assert f"check.txt: only in {a}" in run.stdout

    # bytes that parse to the same lines still differ
    (b / "check.txt").write_text("PASS  one\r\nPASS  two\r\n")
    run = _compare(a, b)
    assert run.returncode == 1
    assert "check.txt: 0 lines differ, but the bytes differ" in run.stdout


def test_compare_quantifies_name_value_files(tmp_path):
    # kernels.txt and source.txt are `name value` lines; a name may hold spaces
    a = tmp_path / "a"
    a.mkdir()
    lines = ["grid/s1/a=(0.3, 0.7)/t=1.0 0.25", "ml2/z=-19.5 AccuracyError: no", "t=0.01 2.0"]
    for name in ("kernels.txt", "source.txt", "other.txt"):
        (a / name).write_text("\n".join(lines) + "\n")
    b = tmp_path / "b"
    shutil.copytree(a, b)
    run = _compare(a, b)
    assert run.returncode == 0, run.stdout
    assert "kernels.txt: 0 lines differ, largest relative difference 0, 0 differing values not numeric" in run.stdout

    # the first value moves from 0.25 to 0.3125 (0.2 relative), and the
    # error's text and the last name change: two differences not numeric
    moved = ["grid/s1/a=(0.3, 0.7)/t=1.0 0.3125", "ml2/z=-19.5 AccuracyError: yes", "t=0.02 2.0"]
    for name in ("kernels.txt", "source.txt", "other.txt"):
        (b / name).write_text("\n".join(moved) + "\n")
    run = _compare(a, b)
    assert run.returncode == 1
    for name in ("kernels.txt", "source.txt"):
        assert f"{name}: 3 lines differ, largest relative difference 0.2, 2 differing values not numeric" in run.stdout
    assert "other.txt: 3 lines differ\n" in run.stdout

    # a line found on one side only is not numeric
    (b / "kernels.txt").write_text(lines[0] + "\n")
    run = _compare(a, b)
    assert "kernels.txt: 2 lines differ, largest relative difference 0, 2 differing values not numeric" in run.stdout


def test_source_values_records_each_figures_source_time(tmp_path):
    # one line per source time of the figures benchmark inputs at the three
    # seeds, each the repr of the value in this process
    root = SCRIPT.parents[1]
    path = os.pathsep.join(str(root / d) for d in ("src", "ci", "perfbench"))
    run = subprocess.run(
        [sys.executable, "-c", f"import compare_outputs; compare_outputs.source_values({str(tmp_path)!r})"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    workloads = runpy.run_path(str(root / "perfbench" / "workloads.py"))
    problem = build_example_4_2("ii")
    orders = OrderSpec(*workloads["SOURCE_ORDERS"])
    lines = (tmp_path / "source.txt").read_text().splitlines()
    inputs = [workloads["make_inputs"]("figures", seed) for seed in (101, 202, 303)]
    times = [t for i in inputs for t in i["source_ts"]]
    assert len(lines) == len(times)
    for line, t in zip(lines, times):
        assert line == f"t={t!r} {trace_source(problem, orders, t, method='auto')!r}"
