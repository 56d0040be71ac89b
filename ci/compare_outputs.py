"""Capture every output a change could move, and compare two captures.

    python ci/compare_outputs.py capture SRC OUT
    python ci/compare_outputs.py compare A B

`capture` runs the fracorder package under SRC (on PYTHONPATH) and writes
into OUT, which must not exist yet:

    fit/, simulate/   the four `fit` tables and the six `simulate`
                      experiments, one fresh process each
    check/            the stdout of `fracorder check`
    warm/             the four `fit` tables again, from one process whose
                      series cache is warm from the second table on
    minimize.txt      the repr of each `fit.minimize` result of that process
    kernels.txt       the repr of each kernel value of the benchmark's
                      `kernels` inputs for seeds 101, 202 and 303, read from
                      the perfbench/workloads.py beside this script
    source.txt        the repr of each `trace_source(..., method="auto")`
                      value of the benchmark's `figures` inputs for the same
                      seeds, read from the same file

Each of fit/, simulate/, check/ and warm/ holds the stdout and the exit code
of its commands.  `capture` exits 1 when a command exits above 1 (`fit` on
table2 and table3 exits 1 by design) or a helper process fails.

`compare` walks two trees.  For each CSV it prints how many cells differ,
the largest relative difference of a numeric cell, and how many differing
cells are not numeric; for kernels.txt and source.txt, whose lines are a
name and a value, the same of the lines' last fields, a line whose name
differs counting as not numeric; for every other file, how many lines differ; and files found
on one side only.  A file differs when its bytes do, so it
exits 1 on any byte difference or missing file, and 0 otherwise.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

TABLES = ("table1a", "table1b", "table2", "table3")
SIMULATED = ("fig1", "fig2", *TABLES)
SEEDS = (101, 202, 303)
# the captured files of `name value` lines, whose names may hold spaces
VALUE_FILES = ("kernels.txt", "source.txt")
HERE = Path(__file__).resolve().parent


def _log_exit(out: Path, name: str, code: int) -> None:
    with open(out / "exit-codes.txt", "a") as fh:
        fh.write(f"{name} {code}\n")


def warm_fits(src: str, out: str) -> None:
    """Fit the four tables in this process, recording each minimize result."""
    import fracorder
    from fracorder import cli, fit

    if not Path(fracorder.__file__).resolve().is_relative_to(src):
        sys.exit(f"fracorder was imported from {fracorder.__file__}, not from {src}")
    inner, results = fit.minimize, []

    def wrapped(sample, config):
        res = inner(sample, config)
        results.append(repr((res.params, res.objective, res.iterations, res.converged, res.history)))
        return res

    fit.minimize = wrapped
    warm = Path(out, "warm")
    warm.mkdir()
    codes = []
    with open(warm / "stdout.txt", "w") as fh, contextlib.redirect_stdout(fh):
        for exp in TABLES:
            codes.append(cli.main(["fit", "--experiment", exp, "--out", str(warm)]))
            _log_exit(warm, exp, codes[-1])
    Path(out, "minimize.txt").write_text("".join(r + "\n" for r in results))
    if max(codes) > 1:
        sys.exit(f"a warm fit exited with {max(codes)}")


def kernel_values(out: str) -> None:
    """Evaluate the kernels benchmark's operations, one line per operation."""
    from fracorder import specfun
    from workloads import call_kernel, make_inputs

    lines = []
    for seed in SEEDS:
        for op in make_inputs("kernels", seed)["ops"]:
            try:
                value = repr(call_kernel(specfun, op))
            except (ArithmeticError, ValueError) as exc:
                value = f"{type(exc).__name__}: {exc}"
            lines.append(f"{op['id']} {value}\n")
    Path(out, "kernels.txt").write_text("".join(lines))


def source_values(out: str) -> None:
    """Evaluate the figures benchmark's source-case points, one line per time."""
    from fracorder import forward, specfun
    from workloads import SOURCE_ORDERS, make_inputs

    problem = forward.build_example_4_2("ii")
    orders = specfun.OrderSpec(*SOURCE_ORDERS)
    lines = []
    for seed in SEEDS:
        for t in make_inputs("figures", seed)["source_ts"]:
            try:
                value = repr(forward.trace_source(problem, orders, t, method="auto"))
            except (ArithmeticError, ValueError) as exc:
                value = f"{type(exc).__name__}: {exc}"
            lines.append(f"t={t!r} {value}\n")
    Path(out, "source.txt").write_text("".join(lines))


def capture(src: Path, out: Path) -> int:
    src = src.resolve()
    out.mkdir(parents=True)
    failed = []

    def python(*args, path=(), stdout=None):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, (src, *path)))}
        return subprocess.run([sys.executable, *args], env=env, stdout=stdout, text=True).returncode

    commands = [("fit", exp) for exp in TABLES] + [("simulate", exp) for exp in SIMULATED]
    for verb, exp in [*commands, ("check", None)]:
        where = out / verb
        where.mkdir(exist_ok=True)
        args = [verb] if exp is None else [verb, "--experiment", exp, "--out", str(where)]
        with open(where / "stdout.txt", "a") as fh:
            code = python("-m", "fracorder", *args, stdout=fh)
        _log_exit(where, exp or verb, code)
        if code > 1:
            failed.append(f"{' '.join(args[:3])} exited with {code}")
    # the helpers run here, imported beside SRC's fracorder in a new process
    call = "import sys, compare_outputs as c; getattr(c, sys.argv[1])(*sys.argv[2:])"
    helpers = (("warm_fits", src, out), ("kernel_values", out), ("source_values", out))
    for helper, *args in helpers:
        if code := python("-c", call, helper, *map(str, args), path=(HERE, HERE.parent / "perfbench")):
            failed.append(f"{helper} exited with {code}")
    for line in failed:
        print(f"capture {src}: {line}", file=sys.stderr)
    return 1 if failed else 0


def _relative_difference(x: str, y: str) -> float:
    """|u - v| / max(|u|, |v|) of two numeric cells; NaN when a cell is not
    a number or the difference is not finite."""
    try:
        u, v = float(x), float(y)
    except (TypeError, ValueError):
        return math.nan
    return abs(u - v) / max(abs(u), abs(v)) if u != v else 0.0


def _tally(pairs) -> tuple[int, float, int]:
    """How many of the (x, y) pairs differ, the largest relative difference
    of a differing numeric pair, and how many differing pairs are not numeric."""
    differ, worst, other = 0, 0.0, 0
    for x, y in pairs:
        if x == y:
            continue
        differ += 1
        rel = _relative_difference(x, y)
        if math.isfinite(rel):
            worst = max(worst, rel)
        else:
            other += 1
    return differ, worst, other


def _compare_csv(a: Path, b: Path) -> tuple[int, str]:
    rows_a, rows_b = (list(csv.reader(p.read_text().splitlines())) for p in (a, b))
    rows = zip_longest(rows_a, rows_b, fillvalue=[])
    differ, worst, other = _tally(cells for row_a, row_b in rows for cells in zip_longest(row_a, row_b))
    return differ, (
        f"{differ} cells differ, largest relative difference {worst:.3g}, "
        f"{other} differing cells not numeric"
    )


def _values(x: str | None, y: str | None) -> tuple:
    """The last fields of two `name value` lines when the rest agrees, else
    the lines themselves (a name may hold spaces, a float value does not)."""
    if x is None or y is None:
        return x, y
    (name_x, _, u), (name_y, _, v) = x.rpartition(" "), y.rpartition(" ")
    return (u, v) if name_x == name_y else (x, y)


def _compare_values(a: Path, b: Path) -> tuple[int, str]:
    lines = zip_longest(a.read_text().splitlines(), b.read_text().splitlines())
    differ, worst, other = _tally(_values(x, y) for x, y in lines)
    return differ, (
        f"{differ} lines differ, largest relative difference {worst:.3g}, "
        f"{other} differing values not numeric"
    )


def _compare_lines(a: Path, b: Path) -> tuple[int, str]:
    lines = zip_longest(a.read_text().splitlines(), b.read_text().splitlines())
    differ = sum(x != y for x, y in lines)
    return differ, f"{differ} lines differ"


def compare(a: Path, b: Path) -> int:
    if not (a.is_dir() and b.is_dir()):
        print(f"compare: {a} and {b} must both be directories", file=sys.stderr)
        return 2
    names = {p.relative_to(root) for root in (a, b) for p in root.rglob("*") if p.is_file()}
    changed = 0
    for name in sorted(names):
        if not (a / name).is_file() or not (b / name).is_file():
            changed += 1
            print(f"{name}: only in {a if (a / name).is_file() else b}")
            continue
        # a file differs when its bytes do; cells and lines say where
        same = (a / name).read_bytes() == (b / name).read_bytes()
        if name.suffix == ".csv":
            count, report = _compare_csv(a / name, b / name)
        elif name.as_posix() in VALUE_FILES:
            count, report = _compare_values(a / name, b / name)
        else:
            count, report = _compare_lines(a / name, b / name)
        if count == 0 and not same:
            report += ", but the bytes differ"
        changed += not same
        print(f"{name}: {report}")
    print(f"{changed} of {len(names)} files differ")
    return 1 if changed else 0


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[0] not in ("capture", "compare"):
        print("usage: compare_outputs.py capture SRC OUT | compare A B", file=sys.stderr)
        return 2
    command = capture if argv[0] == "capture" else compare
    return command(Path(argv[1]), Path(argv[2]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
