"""Ops, per-op budgets, one timed pass, and the numbers a run reports.

A workload is a generator of :class:`Op` objects.  The harness times each
op's ``run`` under the op's budget, checks the answer outside the timed
region, and sends the result back into the generator, so later ops can use
earlier results (a class algebra, a file an earlier command wrote).
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class OpTimeout(BaseException):
    """Raised inside an op when its budget runs out.

    A ``BaseException`` so that no ``except Exception`` in the package can
    swallow it.
    """


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    budget: float
    layer: str = ""
    # a probe of input hardening: a wrong exit code is a failure, but not a
    # wrong mathematical answer
    robustness: bool = False


@dataclass
class Outcome:
    name: str
    seconds: float
    cpu_seconds: float
    status: str  # "ok", "wrong", "timeout" or "error"
    detail: str = ""
    robustness: bool = False

    @property
    def failed(self) -> bool:
        return self.status != "ok"


def _on_alarm(signum, frame):
    raise OpTimeout()


TIMEOUT = "timeout"


def cpu_seconds() -> float:
    """User plus system time of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def call_with_budget(fn: Callable[[], Any], budget: float):
    """(result, seconds, cpu seconds, error); error is None, TIMEOUT or the exception text.

    The op is interrupted at its budget.  The interrupt unwinds the op's own
    stack, so nothing of it keeps running once this returns.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    result, error = None, None
    c0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        error = TIMEOUT
    except Exception as exc:  # the op's own failure is an outcome, not a crash
        error = f"{type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
        signal.signal(signal.SIGALRM, previous)
    if error == TIMEOUT:
        gc.collect()
    return result, seconds, cpu, error


def run_pass(ops, tracer=None) -> list[Outcome]:
    """Run every op the generator yields, once, in order."""
    outcomes: list[Outcome] = []
    try:
        op = next(ops)
    except StopIteration:
        return outcomes
    while True:
        if tracer is not None:
            tracer.active = True
        try:
            result, seconds, cpu, error = call_with_budget(op.run, op.budget)
        finally:
            if tracer is not None:
                tracer.active = False
        if error == TIMEOUT:
            status, detail = "timeout", f"stopped at its {op.budget:g} s budget"
            if tracer is not None and f"{op.layer}.timeouts" in tracer.counters:
                tracer.counters[f"{op.layer}.timeouts"] += 1
        elif error is not None:
            status, detail = "error", error
        else:
            detail = op.check(result)
            status = "ok" if detail is None else "wrong"
        outcomes.append(
            Outcome(op.name, seconds, cpu, status, detail or "", op.robustness)
        )
        try:
            op = ops.send(result if status == "ok" else None)
        except StopIteration:
            return outcomes


# -- statistics ----------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def op_latencies(outcomes: list[Outcome]) -> dict[str, float]:
    """Per-op latency of one pass, for the detail report."""
    times = [o.seconds for o in outcomes]
    return {
        "ops": len(times),
        "cpu_s": sum(o.cpu_seconds for o in outcomes),
        "op_p50_s": percentile(times, 0.5),
        "op_p90_s": percentile(times, 0.9),
        "ops_per_s": len(times) / sum(times),
    }


def timed_setups(setup: Callable[[int], Any], seed: int, seconds: float, least: int, most: int):
    """(median seconds, state of the last repeat, repeats).

    Repeats set-up until ``seconds`` have passed, at least ``least`` and at
    most ``most`` times.  Each repeat re-imports the package from a clean
    module table, so import time counts as set-up time every time.
    """
    times: list[float] = []
    state = None
    while len(times) < least or (sum(times) < seconds and len(times) < most):
        state = None
        for name in [m for m in sys.modules if m == "tfalgebra" or m.startswith("tfalgebra.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        state = setup(seed)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), state, len(times)


# -- run metadata ----------------------------------------------------------------


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def source_digest() -> str:
    """SHA-256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "tfalgebra").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def metadata(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "seed": seed,
    }
