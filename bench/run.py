"""Staircase benchmark: the CLI end to end on seeded workloads.

    python3 bench/run.py --workload suites --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each run starts fresh single-threaded
interpreters (bench/worker.py).  With ``--trace 0`` it reports the end-to-end
metrics: ``setup_s`` is the median, over SETUP_RUNS fresh interpreters, of
the time from starting the interpreter until the first op can be issued;
the other metrics come from the measured worker.  With ``--trace 1`` it
reports the per-layer metrics of a traced run.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  See
bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_RUNS = 7
DEADLINE_S = 170.0
WORKER_ENV = {
    **{
        name: "1"
        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    },
    # A fixed mmap threshold turns off glibc's adaptive one, which makes the
    # resident set of the large box scans depend on allocation history.
    "MALLOC_MMAP_THRESHOLD_": "131072",
}


def _worker(args, deadline: float, setup_only: bool) -> tuple[float, list[str]]:
    """Start one worker; return its set-up time and the lines it printed after READY."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, **WORKER_ENV}, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - start), proc.kill)
    watchdog.start()
    try:
        setup = None
        lines = []
        for line in proc.stdout:
            if setup is None and line.strip() == "READY":
                setup = time.perf_counter() - start
            elif setup is not None:
                lines.append(line.rstrip("\n"))
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or setup is None:
        raise RuntimeError(f"worker exited with code {code}")
    return setup, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "staircase" / "__init__.py").is_file():
        print(f"no staircase package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(_worker(args, deadline, setup_only=True)[0])
    setup, lines = _worker(args, deadline, setup_only=False)
    setups.append(setup)
    if not lines or not lines[-1].startswith("RESULT "):
        raise RuntimeError("the worker printed no result")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1][len("RESULT "):])
    if not args.trace:
        print(f"setup: {', '.join(f'{s:.3f}' for s in setups)} s")
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
