"""One phase of one workload, run in a fresh process by ``run.py``.

    worker.py setup --workload W --seed N --workdir D --trace 0|1
    worker.py run   --workload W --seed N --workdir D --trace 0|1 --seconds S

``setup`` performs the workload's set-up once untimed, then SETUP_REPEATS
times timed over the same files, and leaves the data set under ``D/data``.
``run`` repeats closed-loop rounds until S seconds have passed, checking
every round's output. Both print one JSON object as their last line of
standard output.

With ``--trace 1`` the run phase alternates untraced and traced rounds;
the per-layer metrics come from the traced rounds, and the tracing
overhead is the difference of the two medians.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src"
SETUP_REPEATS = 9
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def import_program():
    """Import podclass from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SOURCE))
    import podclass

    if Path(podclass.__file__).resolve().parent != SOURCE / "podclass":
        raise SystemExit(f"podclass imported from {podclass.__file__}, not {SOURCE}")
    return podclass


def fingerprint() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((l.split(":", 1)[1].strip() for l in info if l.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def empty_files(root: Path) -> None:
    """Truncate every file under ``root`` to 0 bytes, keeping the files."""
    for folder, _, names in os.walk(root):
        for name in names:
            os.truncate(os.path.join(folder, name), 0)


def run_setup(workload, args) -> dict:
    """Time the set-up SETUP_REPEATS times after one untimed warm-up.

    The warm-up creates the data tree. Each timed set-up writes the same
    tree again into the same files, emptied beforehand, so ``setup_s``
    holds synthesis and the writing of every file but not the creation of
    the files: on the ext4 disk of the reference figures (README.md) that
    cost 0.07-0.6 ms of kernel time per file, varying within an hour with
    the machine, not with the program.

    ``setup_s`` is the median CPU time (user plus system) of this process
    over the timed set-ups. Wall time also counts the kernel's completion
    of the written files' I/O whenever it runs on this process's CPU,
    which there added 0 to about 20% to a set-up depending on where the
    scheduler placed the process; the wall times are reported alongside.
    """
    import tracer

    data = args.workdir / "data"
    start = time.perf_counter()
    samples = workload.setup(args.seed, data)
    first = time.perf_counter() - start
    trace = tracer.Tracer() if args.trace else None
    if trace:
        trace.install()
    cpu, wall = [], []
    for _ in range(SETUP_REPEATS):
        empty_files(data)
        start, start_cpu = time.perf_counter(), time.process_time()
        samples = workload.setup(args.seed, data)
        cpu.append(time.process_time() - start_cpu)
        wall.append(time.perf_counter() - start)
    if trace:
        trace.uninstall()
    workload.finish_setup(samples, args.workdir)
    result = {
        "setup_s": statistics.median(cpu),
        "setup_runs_s": cpu,
        "setup_wall_s": wall,
        "setup_first_s": first,
    }
    if trace:
        result["layers"] = tracer.setup_metrics(trace.take(), SETUP_REPEATS)
    return result


def run_rounds(workload, state, seconds: float, tally: dict, trace=None) -> list[float]:
    """Closed loop: start rounds until ``seconds`` have passed; each round is
    timed, then checked. Returns the wall times of the rounds that did not
    raise."""
    walls = []
    start = time.perf_counter()
    while True:
        tally["attempted"] += 1
        round_start = time.perf_counter()
        try:
            output = workload.operation(state)
        except Exception:
            tally["failed"] += 1
            traceback.print_exc(file=sys.stderr)
            output = None
        wall = time.perf_counter() - round_start
        spans = trace.take() if trace is not None else None
        if tally.get("peak_rss_mb") is None:
            # read before any check allocates its references
            tally["peak_rss_mb"] = peak_rss_mb()
        if output is not None:
            walls.append(wall)
            if spans is not None:
                tally["spans"].append(spans)
            try:
                failures = workload.check(state, output)
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                failures = [f"check raised {exc!r}"]
            for failure in failures:
                print(f"check failed: {failure}", file=sys.stderr)
            tally["check_failures"] += len(failures)
        del output
        if time.perf_counter() - start >= seconds:
            return walls


def trace_metrics(workload, rounds, plain_walls, traced_walls) -> dict:
    """Per-layer metrics of the traced rounds, plus three figures about the
    trace itself: the overhead (median traced minus median untraced round),
    the top-level spans over the untraced round, and the top-level spans
    over the traced round they were recorded in (coverage)."""
    import tracer

    layers = tracer.layer_metrics(rounds, workload.channels, workload.side)
    untraced = statistics.median(plain_walls)
    traced = statistics.median(traced_walls)
    top_level = statistics.median(tracer.top_level_seconds(spans) for spans in rounds)
    layers["trace.overhead_s"] = traced - untraced
    layers["trace.top_level_share"] = top_level / untraced
    layers["trace.coverage"] = top_level / traced
    return layers


def run_timed(workload, args) -> dict:
    import tracer

    (args.workdir / "out").mkdir(parents=True, exist_ok=True)
    state = workload.prepare(args.seed, args.workdir)
    tally = {"attempted": 0, "failed": 0, "check_failures": 0, "spans": []}
    result = {}
    if not args.trace:
        walls = run_rounds(workload, state, args.seconds, tally)
        result["metrics"] = {
            "wall_s": statistics.median(walls) if walls else None,
            "peak_rss_mb": tally["peak_rss_mb"],
        }
        result["wall_runs_s"] = walls
    else:
        # Untraced and traced rounds alternate, so a drift in machine speed
        # touches both medians alike.
        trace = tracer.Tracer()
        walls: dict[bool, list[float]] = {False: [], True: []}
        start = time.perf_counter()
        while tally["attempted"] < 2 or time.perf_counter() - start < args.seconds:
            traced = tally["attempted"] % 2 == 1
            if traced:
                trace.install()
            try:
                walls[traced] += run_rounds(
                    workload, state, 0.0, tally, trace if traced else None
                )
            finally:
                trace.uninstall()
        result["metrics"] = trace_metrics(
            workload, tally["spans"], walls[False], walls[True]
        )
        result["wall_runs_s"] = walls[False] + walls[True]
    result.update(
        attempted=tally["attempted"],
        failed=tally["failed"],
        correct=tally["check_failures"] == 0,
        fingerprint=fingerprint(),
    )
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()

    import_program()
    sys.path.insert(0, str(BENCH))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.phase == "setup":
        result = run_setup(workload, args)
    else:
        result = run_timed(workload, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
