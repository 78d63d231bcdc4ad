"""Shared helpers: checkout paths, child processes, statistics and the
environment record."""

import hashlib
import json
import os
import platform
import statistics
import subprocess
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# the six shipped instances and the short tags used in metric names
SPECS = (
    ("halfline", "halfline"),
    ("cone:2", "cone2"),
    ("twisted:2", "twisted2"),
    ("dict2", "dict2"),
    ("lattice2", "lattice2"),
    ("product:(halfline,dict2)", "product"),
)
MORPHISM_NAMES = ("doubling", "embed")
BACKENDS = ("pure", "gmpy2")

CHILD_TIMEOUT_S = 150


def source_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "evslab", "__init__.py"))


def child_env(**extra) -> dict:
    """Environment for a child that must import evslab from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.update(extra)
    return env


def run_child(argv, stdout_path, env=None):
    """Run a child to completion with its output in ``stdout_path``.

    Returns (exit code, wall seconds, peak RSS of the child in KiB).  The
    child is killed if it outlives CHILD_TIMEOUT_S.
    """
    with open(stdout_path, "wb") as out, \
            open(stdout_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=env if env is not None else child_env())
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def median(values):
    return statistics.median(values) if values else 0.0


def upper_quartile(values):
    """Third quartile; below four samples the inclusive method, so that
    it never lies beyond the largest sample."""
    if len(values) < 2:
        return values[0] if values else 0.0
    method = "exclusive" if len(values) >= 4 else "inclusive"
    return statistics.quantiles(values, n=4, method=method)[2]


def tail(values):
    """The highest percentile with at least ten samples beyond it (None
    below eleven samples)."""
    n = len(values)
    if n < 11:
        return {"percentile": None, "value": None, "samples": n}
    k = n - 10  # 1-based rank with exactly ten samples above it
    return {"percentile": 100 * k // n, "value": sorted(values)[k - 1],
            "samples": n}


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def _source_digest() -> str:
    pkg = os.path.join(SRC, "evslab")
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def environment(backend: str, workload: str, budget: int, seed: int,
                seconds: int, trace: int) -> dict:
    return {
        "workload": workload,
        "backend": backend,
        "python": platform.python_version(),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "budget": budget,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def input_sets(seed, count):
    """The seeded interval unions behind the cli workload's --input files."""
    import random

    from evslab import sets as st
    from evslab.outcome import subseed

    rng = random.Random(subseed(seed, "cli:input"))
    return [st.random_interval_union(rng) for _ in range(count)]


def last_json_line(path):
    """The last line of a child's output parsed as JSON, or None."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
        return json.loads(lines[-1]) if lines else None
    except (OSError, ValueError):
        return None
