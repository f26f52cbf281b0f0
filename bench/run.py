"""Benchmark of podclass: one workload per invocation.

    python3 bench/run.py --workload pod-disk --seed 3 --seconds 20 --trace 0

Runs the workload's set-up in one fresh process and its timed rounds in
another, both with BLAS pinned to one thread, under a scratch directory in
``.bench_work/`` that is removed afterwards. Prints the machine
fingerprint, then as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
PHASE_TIMEOUT_S = 170


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def units(kind: str) -> dict[str, str]:
    """Metric names and units of one kind ("end_to_end" or "per_layer")."""
    return {m["name"]: m["unit"] for m in spec()[kind]}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
        VECLIB_MAXIMUM_THREADS="1",
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
    )
    return env


def phase(name: str, args, workdir: Path) -> dict:
    command = [
        sys.executable, str(BENCH / "worker.py"), name,
        "--workload", args.workload, "--seed", str(args.seed),
        "--workdir", str(workdir), "--trace", str(args.trace),
        "--seconds", str(args.seconds),
    ]
    done = subprocess.run(
        command, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
        timeout=PHASE_TIMEOUT_S, check=False, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{name} phase exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="podclass benchmark")
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec()["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "podclass" / "__init__.py").is_file():
        print(f"error: no podclass sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        setup = phase("setup", args, workdir)
        timed = phase("run", args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    print("fingerprint " + json.dumps(timed["fingerprint"], sort_keys=True))
    print(
        "rounds " + json.dumps(
            {
                "setup_first_s": setup["setup_first_s"],
                "setup_s": setup["setup_runs_s"],
                "setup_wall_s": setup["setup_wall_s"],
                "wall_s": timed["wall_runs_s"],
            }
        )
    )
    if args.trace:
        values = {**timed["metrics"], **setup["layers"]}
        wanted = units("per_layer")
    else:
        values = {**timed["metrics"], "setup_s": setup["setup_s"]}
        wanted = units("end_to_end")
    result = {
        "correct": timed["correct"],
        "attempted": timed["attempted"],
        "failed": timed["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in wanted.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
