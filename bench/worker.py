"""One measured run of one workload, in a fresh single-threaded interpreter.

Started by run.py.  It imports the package from the checkout's ``src``,
generates the workload's documents, writes them under ``.bench_work`` and
prints ``READY``: everything up to that line is set-up.  With ``--setup-only``
it stops there.  Otherwise it repeats whole passes over the corpus until
``--seconds`` have elapsed, each op being ``staircase.cli.main(argv)`` with
stdout captured, then checks every document's output and prints one
``RESULT`` line.  With ``--trace 1`` each op runs twice in a row, untraced and
then traced, so the difference is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ".bench_work"


def _import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import staircase

    if Path(staircase.__file__).resolve().parent != (src / "staircase").resolve():
        sys.exit(f"staircase was imported from {staircase.__file__}, not from {src}")
    return staircase


def _write_corpus(ops, directory: str) -> list[list[str]]:
    os.makedirs(directory, exist_ok=True)
    argvs = []
    for i, op in enumerate(ops):
        path = f"{directory}/{i:03d}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(op.doc, fh)
        argvs.append([op.command, "--input", path])
    return argvs


class Outcomes:
    """What every execution of every document produced."""

    def __init__(self, count: int):
        self.first: list[tuple | None] = [None] * count  # (code, stdout, stderr, digest)
        self.executions: list[tuple[int, bool]] = []  # (document, output matched the first)
        self.latencies_ns: list[int] = []
        self.ideals = 0

    def record(self, i: int, code, out: str, err: str, elapsed_ns: int, ideals: int, timed: bool = True) -> None:
        digest = hashlib.sha256(out.encode()).hexdigest()
        if self.first[i] is None:
            self.first[i] = (code, out, err, digest)
        self.executions.append((i, self.first[i][3] == digest and self.first[i][0] == code))
        if timed:
            self.latencies_ns.append(elapsed_ns)
            if code == 0:
                self.ideals += ideals

    def digest(self) -> str:
        return hashlib.sha256("".join(f[3] for f in self.first).encode()).hexdigest()


def _run_op(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception:  # an op that raises is a failed op; keep measuring
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), time.perf_counter_ns() - start


def _percentile(sorted_values: list[int], p: float) -> tuple[int, int]:
    """Nearest-rank percentile and the number of values beyond it."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def _check_all(ops, outcomes: Outcomes, check) -> dict[int, list[str]]:
    """Problems per document, from the output of its first execution."""
    problems = {}
    for i, op in enumerate(ops):
        code, out, err, _ = outcomes.first[i]
        found = check(op, code, out)
        if found and err:
            found.append(err.strip().splitlines()[-1])
        if found:
            problems[i] = found
    return problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)

    _import_package()
    from staircase import cli, polytope

    from checks import check_op
    from workloads import TAIL_PERCENTILE, WORKLOADS

    ops = WORKLOADS[args.workload](args.seed)
    name = f"setup-{os.getpid()}" if args.setup_only else f"{args.workload}-{args.seed}"
    directory = f"{WORK}/{name}"
    argvs = _write_corpus(ops, directory)
    print("READY", flush=True)
    if args.setup_only:
        shutil.rmtree(directory)
        return 0

    clear_cache = getattr(polytope.build_polytope, "cache_clear", lambda: None)
    outcomes = Outcomes(len(ops))
    tracer = None
    traced_ns = untraced_ns = 0
    pass_rates = []  # ideals per second of each pass
    start = time.perf_counter()
    if args.trace:
        from tracing import CHECK_ROOT, OP_ROOT, Instrumentation, Profile, Tracer, unit

        tracer = Tracer()
        instrumentation = Instrumentation(tracer)
    while True:
        pass_start, pass_ideals = time.perf_counter(), outcomes.ideals
        for i, op in enumerate(ops):
            clear_cache()  # every CLI invocation starts with an empty polytope cache
            code, out, err, ns = _run_op(cli, argvs[i])
            outcomes.record(i, code, out, err, ns, op.ideals)
            if tracer is not None:
                untraced_ns += ns
                clear_cache()
                t0 = time.perf_counter_ns()
                code, out, err, _ = instrumentation.run(OP_ROOT, len(outcomes.executions), lambda: _run_op(cli, argvs[i]))
                ns = time.perf_counter_ns() - t0
                traced_ns += ns
                outcomes.record(i, code, out, err, ns, op.ideals, timed=False)
        now = time.perf_counter()
        pass_rates.append((outcomes.ideals - pass_ideals) / (now - pass_start))
        if now - start >= args.seconds:
            break
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    check = check_op
    if tracer is not None:
        tracer.counting = False  # counters describe the ops, not the oracles

        def check(op, code, out):
            return instrumentation.run(CHECK_ROOT, -1, lambda: check_op(op, code, out))

    problems = _check_all(ops, outcomes, check)
    failed = sum(1 for i, same in outcomes.executions if i in problems or not same)
    attempted = len(outcomes.executions)
    for i, found in sorted(problems.items())[:5]:
        print(f"problem: op {i} ({' '.join(argvs[i])}): {'; '.join(found)[:400]}")
    print(f"digest: {args.workload} seed={args.seed} {outcomes.digest()}")

    lat = sorted(outcomes.latencies_ns)
    print(f"ops: {len(lat)} timed in {len(pass_rates)} passes of {len(ops)} documents, {outcomes.ideals} ideals, {wall:.2f} s")
    if tracer is None:
        p = TAIL_PERCENTILE[args.workload]
        tail, beyond = _percentile(lat, p)
        print(f"tail: p{p:g} of {len(lat)} ops, {beyond} ops beyond it")
        metrics = {
            "ideals_per_s": (statistics.median(pass_rates), "1/s"),
            "op_p50_ms": (statistics.median(lat) / 1e6, "ms"),
            "op_tail_ms": (tail / 1e6, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
    else:
        profile = Profile(tracer)
        checked = sum(op.ideals for op in ops if op.command == "degenerate")
        layer = profile.metrics(tracer, outcomes.ideals, checked)
        layer["trace.overhead_ratio"] = (traced_ns - untraced_ns) / untraced_ns
        print(
            f"tracing overhead: traced {traced_ns / 1e9:.3f} s - untraced {untraced_ns / 1e9:.3f} s "
            f"= {(traced_ns - untraced_ns) / 1e9:.3f} s over {len(lat)} ops"
        )
        total = profile.op_time or 1
        for layer_name, ns in sorted(profile.self_by_layer.items(), key=lambda kv: -kv[1]):
            print(f"share: {layer_name:<14} {ns / total:7.1%}  self time")
        for span, ns in sorted(profile.self_by_name.items(), key=lambda kv: -kv[1])[:8]:
            print(f"share: {span:<28} {ns / total:7.1%}  self time")
        tracer.write(f"{WORK}/spans-{args.workload}-{args.seed}.json")
        metrics = {k: (v, unit(k)) for k, v in layer.items()}
    shutil.rmtree(directory)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
