"""Collect perfbench result records into one committed BENCH file.

    python3 tools/bench_record.py --out BENCH_1.json --side change \
        [--tier1-s 62.7 --tier1-s 60.1 ...] result-laws-seed7-trace0.json ...

``perfbench/run.py`` writes one record per run to
``.perfbench_out/result-<workload>-seed<n>-trace<t>.json``; the next run
of the same workload, seed and trace overwrites it, so copy each record
away before the next run and pass the copies here.

Each call adds one side (a named version of the code, such as
``parent`` or ``change``) to ``--out``, replacing a side of that name
and keeping the others.  A side records the backend, Python version,
commit and source digest that all of its records must share, the Tier-1
wall times when ``--tier1-s`` is given, a calibration figure, and, for
each workload, seed and trace setting, the metrics of every run in input
order with their quartiles, and the operations attempted and failed.
A side whose source digest is not the digest of ``src/evslab/*.py`` as
committed at its recorded commit in the repository holding this file (a
run on an uncommitted tree is labelled with ``HEAD``) is refused.
Standard library only.

The ``calibration`` entry holds the wall times of seven runs of a
pinned pure-Python loop that imports nothing from evslab, with their
quartiles.  It is a rough reading of the machine's speed when the side
is recorded, which may be long after its runs, not a normaliser: on a
shared machine it drifts by several percent between two sides recorded
one after the other, as much as a small gain being measured.  Its
quartiles show how noisy the reading was.  Compare sides through pairs
run alternately in one session, not through their calibration figures.

``--tier1-s`` may be repeated, once per Tier-1 run of the side; one
run cannot tell two sides apart on a shared machine.  The ``tier1``
entry holds every value with its quartiles, like ``calibration``, and
``tier1_wall_s`` their median.
"""

import argparse
import json
import os
import hashlib
import math
import statistics
import subprocess
import sys
from time import perf_counter

# fields every record of one side must agree on
IDENTITY = ("backend", "python", "commit", "source_sha256", "nproc")

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "src/evslab"


def _git(*args) -> bytes:
    try:
        return subprocess.run(["git", "-C", REPO, *args], check=True,
                              capture_output=True).stdout
    except subprocess.CalledProcessError as exc:
        raise ValueError(f"git {' '.join(args)}: "
                         f"{exc.stderr.decode().strip()}") from None


def committed_source_digest(commit) -> str:
    """The digest ``perfbench`` records for ``src/evslab/*.py`` (see
    ``perfbench/common._source_digest``), of the files at ``commit``."""
    paths = _git("ls-tree", "--name-only", commit,
                 PACKAGE + "/").decode().split()
    h = hashlib.sha256()
    for path in sorted(paths, key=os.path.basename):
        name = os.path.basename(path)
        if name.endswith(".py"):
            h.update(name.encode() + b"\0"
                     + _git("show", f"{commit}:{path}"))
    return h.hexdigest()[:16]


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def _seconds(values) -> dict:
    """Wall times in seconds with their quartiles."""
    q1, median, q3 = _quartiles(values)
    return {"unit": "s", "values": values, "q1": q1, "median": median,
            "q3": q3}


CALIBRATION_RUNS = 7


def calibration_loop() -> int:
    """Fixed integer, ``gcd`` and list work, like exact rational
    arithmetic in pure Python; returns a checksum of it."""
    total, xs = 1, []
    for i in range(1, 300_001):
        total = (total * 7919 + i) % 1_000_003
        xs.append(math.gcd(total, i) + (total & 0xFF))
    return total + sum(xs)


def calibration() -> dict:
    """Wall seconds of ``CALIBRATION_RUNS`` runs of
    :func:`calibration_loop`, with their quartiles."""
    times = []
    for _ in range(CALIBRATION_RUNS):
        t0 = perf_counter()
        calibration_loop()
        times.append(perf_counter() - t0)
    return _seconds(times)


def collect(paths):
    """The side entry for the records at ``paths``; ValueError when they
    do not share one identity, or when its source digest is not that of
    its commit."""
    identity, groups = None, {}
    for path in paths:
        with open(path) as fh:
            rec = json.load(fh)
        env = rec["environment"]
        ident = {k: env[k] for k in IDENTITY}
        if identity is None:
            identity = ident
        elif ident != identity:
            raise ValueError(f"{path}: {ident} differs from {identity}")
        key = (env["workload"], env["seed"], env["trace"])
        g = groups.setdefault(key, {
            "workload": env["workload"], "seed": env["seed"],
            "trace": env["trace"], "seconds": env["seconds"],
            "budget": env["budget"], "runs": 0, "attempted": 0,
            "failed": 0, "metrics": {}})
        g["runs"] += 1
        g["attempted"] += rec["attempted"]
        g["failed"] += rec["failed"]
        for name, m in rec["metrics"].items():
            g["metrics"].setdefault(
                name, {"unit": m["unit"], "values": []})["values"].append(
                    m["value"])
    if identity is None:
        raise ValueError("no result records given")
    committed = committed_source_digest(identity["commit"])
    if identity["source_sha256"] != committed:
        raise ValueError(
            f"source digest {identity['source_sha256']} is not the digest "
            f"{committed} of {PACKAGE} at commit {identity['commit']}: "
            f"were the runs made on an uncommitted tree?")
    for g in groups.values():
        for m in g["metrics"].values():
            m["q1"], m["median"], m["q3"] = _quartiles(m["values"])
    return dict(identity, groups=[groups[k] for k in sorted(groups)])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--side", required=True)
    ap.add_argument("--tier1-s", type=float, action="append",
                    help="Tier-1 test suite wall time of one run of this "
                         "side, in s; repeat it for each run")
    ap.add_argument("results", nargs="+")
    args = ap.parse_args(argv)
    try:
        side = collect(args.results)
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 2
    if args.tier1_s:
        side["tier1"] = _seconds(args.tier1_s)
        side["tier1_wall_s"] = side["tier1"]["median"]
    side["calibration"] = calibration()
    doc = {"sides": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc["sides"][args.side] = side
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
