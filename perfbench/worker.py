"""Worker process: imports the package, builds the inputs, and runs whole
rounds of one workload until the measuring time is used up.

Started by run.py in a fresh single-threaded process with `src` on the path.
Prints one JSON line with the round timings, the output digests and, in a
traced run, the per-layer aggregates.  It runs no correctness checks and
imports neither scipy nor mpmath itself, so its peak memory is the package's.
An untraced run also runs the speed probe (speed.py) through its rounds, and
reports their times scaled to the reference speed next to the raw ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

sys.dont_write_bytecode = True

import speed
import tracer
import workloads


def _digest(out_dir: Path, values: dict) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    h.update(json.dumps(values, sort_keys=True).encode())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    t_import = time.monotonic()
    import fracorder.cli  # noqa: F401  (pulls in every layer)

    cli_import_s = time.monotonic() - t_import
    inputs = workloads.make_inputs(args.workload, args.seed)
    setup_done = time.monotonic()

    tr = tracer.Tracer() if args.trace else None
    probe = None if args.trace else speed.SpeedProbe()
    if probe is not None:
        probe.start()
    walls: list[float] = []
    scaled_walls: list[float] = []
    traced_walls: list[float] = []
    snapshots: list[dict] = []
    digests: list[str] = []
    values0: dict = {}
    started = time.perf_counter()
    i = 0
    wall = 0.0
    # whole rounds, as long as the next one is expected to end nearer to the
    # measuring time than stopping now; a traced run alternates untraced and
    # traced rounds and needs at least one of each
    while (
        i == 0
        or time.perf_counter() - started + wall / 2 < args.seconds
        or (tr is not None and not traced_walls)
    ):
        traced = tr is not None and i % 2 == 1
        round_dir = args.out / f"round-{i}"
        if traced:
            tr.reset()
            tr.install()
        first = probe.mark() if probe is not None else 0
        t0 = time.perf_counter()
        try:
            values = workloads.run_round(args.workload, inputs, round_dir)
            wall = time.perf_counter() - t0
        finally:
            if traced:
                tr.uninstall()
        if probe is not None:
            scaled_walls.append(probe.scaled(first, probe.mark()))
        (traced_walls if traced else walls).append(wall)
        if traced:
            snapshots.append(tr.snapshot())
        digests.append(_digest(round_dir, values))
        if i == 0:
            values0 = values
        else:
            shutil.rmtree(round_dir)
        i += 1
    if probe is not None:
        probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {
        "setup_done": setup_done,
        "cli_import_s": cli_import_s,
        "walls": walls,
        "scaled_walls": scaled_walls,
        "traced_walls": traced_walls,
        "wall_s": median(scaled_walls) if probe is not None else median(walls),
        "probes": len(probe.marks) if probe is not None else 0,
        "peak_rss_mb": peak_rss_mb,
        "digests": digests,
        "values": values0,
        "inputs": inputs,
        "round_dir": str(args.out / "round-0"),
    }
    if tr is not None:
        layers = tracer.combine(snapshots)
        layers["cli.import_s"] = cli_import_s
        layers["trace.overhead_s"] = median(traced_walls) - median(walls)
        report["layers"] = layers
        report["absent"] = sorted(tr.absent)
        report["spans"] = snapshots[0]["spans"]
        report["edges"] = snapshots[0]["edges"]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
