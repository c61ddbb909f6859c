"""Benchmark of the tfalgebra package and its ``tfa`` command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cohomology-ladder --seed 1 --seconds 48 --trace 0

Workloads: ``cohomology-ladder``, ``pairs-classify`` and ``tfa-batch`` (see
the module of each).  One closed-loop client in this process runs one pass
over the workload's ops, each op under a wall-clock budget, and checks every
answer outside the timed region.  Each run measures one pass in a fresh
process, so both sides of a comparison are measured cold in the same way.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` installs the
per-layer tracer (``tracer.py``) and reports the per-layer metrics instead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
timeouts, wrong answers and wrong exit codes; ``correct`` is false only when
an op gave a wrong answer on valid input.  Details (every op, the failing
cases by name, the run metadata) go to ``.perfbench-out/`` in the checkout
and a summary to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from harness import ROOT, SRC  # noqa: E402

WORKLOADS = ("cohomology-ladder", "pairs-classify", "tfa-batch")
# set-up repeats until this many seconds have passed, within these counts
SETUP_SECONDS = 2.0
SETUP_REPEATS = (5, 51)
OUT = ROOT / ".perfbench-out"

TRACE_NOTE = (
    "per-scalar fields operations, linalg.apply_map, Cochain.value and "
    "KappaPair.g2_value/key are not wrapped; their time is in the self "
    "time of their wrapped callers"
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}


def _workload_module(name: str):
    if name == "cohomology-ladder":
        import ladder as module
    elif name == "pairs-classify":
        import classify as module
    else:
        import batch as module
    return module


def cli_import_seconds(repeats: int = 3) -> float:
    """Median time to import ``tfalgebra.cli`` in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import tfalgebra.cli; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
        )
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tfalgebra" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    load_start = harness.loadavg()
    meta = harness.metadata(args.seed)
    workload = _workload_module(args.workload)
    state = None
    try:
        setup_s, state, setups = harness.timed_setups(
            workload.setup, args.seed, SETUP_SECONDS, *SETUP_REPEATS
        )
        package = state["package"]
        if Path(package.__file__).resolve().parent != SRC / "tfalgebra":
            print(f"perfbench: imported {package.__file__}, not the checkout", file=sys.stderr)
            return 2

        tracer = None
        if args.trace:
            from tracer import Tracer, wrapper_cost

            tracer = Tracer()
            tracer.install()

        t0 = time.perf_counter()
        outcomes = harness.run_pass(workload.ops(state, in_process=bool(args.trace)), tracer)
        pass_s = time.perf_counter() - t0
        peak = harness.peak_rss_mb()
    finally:
        if hasattr(workload, "cleanup"):
            workload.cleanup(state)

    wall = sum(o.seconds for o in outcomes)  # a timed-out op counts the time it ran
    if args.trace:
        tracer.uninstall()
        layer = tracer.metrics()
        layer["cli.import_s"] = cli_import_seconds()
        per_call = wrapper_cost()
        attributed = sum(tracer.self_s.values())
        layer["trace.unattributed_s"] = wall - attributed
        layer["trace.overhead_ratio"] = tracer.total_calls * per_call / wall
        values = layer
        extra = {"wrapper_cost_s": per_call, "traced_wall_s": wall}
    else:
        values = {"setup_s": setup_s, "wall_s": wall, "peak_rss_mb": peak}
        extra = {"latency": harness.op_latencies(outcomes)}

    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.failed)
    wrong = [o for o in outcomes if o.status in ("wrong", "error") and not o.robustness]
    names = layer_metric_names() if args.trace else list(END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit_of(name)} for name in names}
    result = {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}

    detail = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": meta,
        "loadavg_start": load_start,
        "loadavg_end": harness.loadavg(),
        "setup_s": setup_s,
        "setups": setups,
        "pass_s": pass_s,
        "fail_ratio": failed / attempted,
        "failures": {o.name: f"{o.status}: {o.detail}" for o in outcomes if o.failed},
        "ops": [
            {"name": o.name, "seconds": o.seconds, "status": o.status, "detail": o.detail}
            for o in outcomes
        ],
        "metrics": values,
        **extra,
    }
    if args.trace:
        detail["note"] = TRACE_NOTE
        print(f"note: {TRACE_NOTE}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")

    _summarize(args, attempted, failed, wrong, outcomes, values)
    print(json.dumps(result))
    return 0


def layer_metric_names() -> list[str]:
    from tracer import COUNTERS, LAYERS

    names = [f"{layer}.{kind}" for layer in LAYERS for kind in ("calls", "self_s")]
    return names + list(COUNTERS) + ["trace.unattributed_s", "trace.overhead_ratio"]


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if ".bytes_" in name:
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _summarize(args, attempted, failed, wrong, outcomes, values) -> None:
    err = sys.stderr
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} ops, {failed} failed, {len(wrong)} wrong", file=err)
    for o in outcomes:
        if o.failed:
            print(f"  FAILED {o.name}: {o.status}: {o.detail}", file=err)
    for key in sorted(values):
        print(f"  {key} = {values[key]:.6g}", file=err)


if __name__ == "__main__":
    sys.exit(main())
