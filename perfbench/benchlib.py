"""Shared helpers of the repository benchmark: percentiles, metric rows,
checkout paths and child-process plumbing.

Percentiles use the nearest-rank definition: the p-th percentile of n
sorted samples is the sample at rank ``ceil(p/100 * n)``, so exactly
``n - rank`` samples lie beyond it.  That count is what the tail rule
needs: a timing is reported as its median plus the highest standard
percentile that still has at least :data:`MIN_BEYOND` samples beyond it.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence, Tuple

#: Standard percentiles the tail rule chooses from, ascending.
TAIL_PERCENTILES: Tuple[float, ...] = (50.0, 75.0, 90.0, 95.0, 99.0)
#: Samples a reported tail percentile must have beyond it.
MIN_BEYOND = 10

#: The implementations of the paper's Table I, in its column order.
IMPLEMENTATIONS: Tuple[str, ...] = ("reference", "srsue", "oai")

#: The checkout root (the benchmark runs from it; ``src/`` is the program).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
#: Scratch space for stores, journals and caches (inside the checkout).
WORK = os.path.join(HERE, ".work")


class BenchError(Exception):
    """The benchmark could not run (missing program, dead child)."""


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of ``values`` (non-empty)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100.0))
    return ordered[rank - 1]


def beyond(n: int, p: float) -> int:
    """Samples ranked above the nearest-rank ``p``-th percentile of n."""
    return n - max(1, math.ceil(p * n / 100.0))


def tail_percentile(n: int) -> Optional[float]:
    """The highest of :data:`TAIL_PERCENTILES` above the median with at
    least :data:`MIN_BEYOND` samples beyond it, or ``None``."""
    chosen = None
    for p in TAIL_PERCENTILES[1:]:
        if beyond(n, p) >= MIN_BEYOND:
            chosen = p
    return chosen


def summarize(values: Sequence[float]) -> Dict:
    """Median, sample count and the tail the rule allows (if any)."""
    n = len(values)
    summary: Dict = {"n": n,
                     "median": statistics.median(values) if n else 0.0}
    tail = tail_percentile(n)
    if tail is not None:
        summary["tail_p"] = tail
        summary["tail"] = percentile(values, tail)
    return summary


def median_or_zero(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


class MetricTable:
    """Metrics in print order, each with a unit and a sample count."""

    def __init__(self):
        self.rows: List[Tuple[str, float, str, int]] = []

    def add(self, name: str, value: float, unit: str, n: int = 1) -> None:
        self.rows.append((name, float(value), unit, int(n)))

    def add_timing(self, name: str, values: Sequence[float]) -> None:
        """A timing row as the rule reports it: median, then the tail
        percentile (named ``<name>@p<P>``) when enough samples exist."""
        summary = summarize(values)
        self.add(name, summary["median"], "s", summary["n"])
        if "tail" in summary:
            self.add(f"{name}@p{summary['tail_p']:g}", summary["tail"],
                     "s", summary["n"])

    def value(self, name: str) -> float:
        for row in self.rows:
            if row[0] == name:
                return row[1]
        raise KeyError(name)

    def lines(self) -> List[str]:
        return [f"  {name:<40} {value:>14.6f} {unit:<8} n={n}"
                for name, value, unit, n in self.rows]


def program_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def require_program() -> None:
    """Fail fast (before any result is printed) without the program."""
    if not os.path.isfile(os.path.join(SRC, "repro", "api.py")):
        raise BenchError(f"program sources not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def children_cpu_s() -> float:
    """CPU seconds of every child this process has waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def tree_cpu_s(pid: int) -> float:
    """CPU seconds of a live process, its live descendants and the
    descendants it has reaped (Linux ``/proc``)."""
    ticks = os.sysconf("SC_CLK_TCK")
    fields: Dict[int, List[str]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    # after "pid (comm)": state ppid ... utime stime
                    # cutime cstime are fields 14-17 of stat(5)
                    fields[int(entry)] = handle.read().rsplit(")", 1)[1] \
                        .split()
            except OSError:
                continue        # exited while we looked
    tree, frontier = set(), {pid}
    while frontier:
        tree |= frontier
        frontier = {p for p, f in fields.items()
                    if int(f[1]) in frontier and p not in tree}
    total = sum(int(fields[p][11]) + int(fields[p][12])
                for p in tree if p in fields)
    if pid in fields:
        total += int(fields[pid][13]) + int(fields[pid][14])
    return total / ticks


def run_child(args: Sequence[str], timeout: float) -> str:
    """Run a Python child from the checkout root; return its stdout.

    The child is waited for (or killed and reaped on timeout) before
    this returns, so no process outlives the call, and its CPU time is
    then part of :func:`children_cpu_s`.
    """
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                            env=program_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child {args} timed out after {timeout}s")
    except BaseException:
        # Interrupted (Ctrl-C, SIGTERM): take the child down with us.
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited {proc.returncode}: "
                         f"{err.strip()[-2000:]}")
    return out
