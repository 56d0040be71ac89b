"""Benchmark of the fracorder pipeline.

    python3 perfbench/run.py --workload tables|figures|kernels --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a fresh
single-threaded worker process (worker.py) with `src` on the path, whole
rounds at a time for about S seconds; the round times are scaled to a reference
machine speed (speed.py).  This process then checks the
outputs of the first round against independent computations (checks.py),
requires every round to have written identical outputs, and prints one JSON
line: the end-to-end metrics with --trace 0, the per-layer metrics of a
traced run with --trace 1.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

import workloads

HERE = Path(__file__).resolve().parent
WORKER_TIMEOUT_S = 150

PER_LAYER_UNITS = {
    "specfun.mml.calls": "count",
    "specfun.mml.s": "s",
    "specfun.mml_mp.calls": "count",
    "specfun.mml_mp.s": "s",
    "specfun.mp_share": "ratio",
    "specfun.ml2.calls": "count",
    "specfun.ml2.s": "s",
    "specfun.contour.calls": "count",
    "specfun.contour.s": "s",
    "forward.sample_trace.calls": "count",
    "forward.sample_trace.s": "s",
    "forward.unique_sample_share": "ratio",
    "forward.trace_initial.calls": "count",
    "forward.trace_initial.s": "s",
    "forward.trace_source.calls": "count",
    "forward.trace_source.s": "s",
    "models.eval_model.calls": "count",
    "models.eval_model.s": "s",
    "models.fit_evals": "count",
    "models.fit_evals.s": "s",
    "fit.recover.s": "s",
    "fit.minimize.one_term.calls": "count",
    "fit.minimize.one_term.s": "s",
    "fit.minimize.two_term.calls": "count",
    "fit.minimize.two_term.s": "s",
    "fit.minimize.iterations": "count",
    "fit.minimize.max_iter_stops": "count",
    "fit.minimize.converged_share": "ratio",
    "cli.self_s": "s",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}


def _fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.seconds > 0:
        return _fail("--seconds must be positive", 2)

    root = Path.cwd()
    src = root / "src"
    if not (src / "fracorder" / "__init__.py").is_file():
        return _fail(f"no src/fracorder under {root}; run from the root of a checkout", 2)

    out = HERE / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = dict(os.environ)
    env.pop("FRACORDER_LOG", None)
    env.update(
        PYTHONPATH=os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out", str(out),
    ]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=root)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return _fail(f"worker exceeded {WORKER_TIMEOUT_S} s", 3)
    if proc.returncode != 0:
        return _fail(f"worker exited with code {proc.returncode}", 1)
    report = json.loads(stdout.decode().strip().splitlines()[-1])

    # correctness, outside the timed region and outside the worker process
    sys.path.insert(0, str(src))
    import fracorder

    if Path(fracorder.__file__).resolve().parent != (src / "fracorder").resolve():
        return _fail(f"imported fracorder from {fracorder.__file__}, not from {src}", 2)
    import checks

    results = checks.check_workload(args.workload, report["inputs"], Path(report["round_dir"]), report["values"])
    failed = sorted(op for op, problems in results.items() if problems)
    unexpected = [op for op in failed if op not in checks.KNOWN_FAULTS]
    for op in failed:
        tag = "known fault" if op in checks.KNOWN_FAULTS else "FAILED"
        print(f"{tag}: {op}: {'; '.join(results[op])}", file=sys.stderr)
    identical = len(set(report["digests"])) == 1
    if not identical:
        print("FAILED: rounds wrote different outputs", file=sys.stderr)

    if args.trace:
        layers = report["layers"]
        for attr in report["absent"]:
            print(f"absent: fracorder has no {attr}; metrics built on it read -1", file=sys.stderr)
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
        trace_file = HERE / "out" / f"{args.workload}.trace.json"
        trace_file.write_text(json.dumps(
            {k: report[k] for k in ("walls", "traced_walls", "layers", "absent", "spans", "edges")},
            indent=1,
        ) + "\n")
    else:
        metrics = {
            "wall_s": {"value": report["wall_s"], "unit": "s"},
            "setup_s": {"value": report["setup_done"] - t_spawn, "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    print(f"rounds: untraced {report['walls']}, traced {report['traced_walls']}", file=sys.stderr)
    if not args.trace:
        print(
            f"rounds scaled to the reference speed: {report['scaled_walls']}; {report['probes']} probes",
            file=sys.stderr,
        )
    # every round attempts the same operations and wrote the same outputs
    rounds = len(report["digests"])
    print(json.dumps({
        "correct": not unexpected and identical,
        "attempted": len(results) * rounds,
        "failed": len(failed) * rounds,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
