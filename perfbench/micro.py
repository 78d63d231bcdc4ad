"""Per-layer microbenchmarks on seeded corpora.

Run as a child process, once per rational backend, so that the backend
switch (chosen when evslab is imported) takes effect::

    EVSLAB_BACKEND=pure python3 perfbench/micro.py --seed 1

Prints one JSON object: the backend's row of microseconds per operation,
or ``{"backend": ..., "status": "unavailable"}`` when the backend does not
import.
"""

import argparse
import json
import os
import random
import statistics
import sys
import time

import common

REPEATS = 5
METRICS = (
    "backend.add.us", "backend.mul.us", "backend.cmp.us",
    "scalars.mul.us", "scalars.modulus.us",
    "sets.interval_union.us", "sets.iu_intersect.us", "sets.iu_union.us",
    "sets.iu_minkowski.us", "sets.iu_subset.us", "sets.is_balanced.us",
    "sets.is_absorbing.us", "topology.is_bounded_set.us",
    "setexpr.parse_set_expression.us",
)


def rationals(seed, count):
    """Rationals of height <= 6, drawn the way the samplers draw them."""
    from evslab._backend import Rat

    rng = random.Random(seed)
    return [Rat(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(count)]


def per_op_us(fn, args, repeats=REPEATS):
    """Median microseconds per call of ``fn(*a)`` over ``args``."""
    for a in args:  # warm caches and lazy set-up
        fn(*a)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for a in args:
            fn(*a)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / len(args) * 1e6


def run(seed):
    import evslab
    from evslab import scalars as sc
    from evslab import sets as st
    from evslab import setexpr, topology
    from evslab.outcome import subseed

    qs = rationals(subseed(seed, "micro:rat"), 4001)
    rat_pairs = list(zip(qs, qs[1:])) * 5
    tuples = sc.sample_scalar_tuples(2, 3000, subseed(seed, "micro:scalar"),
                                     sc.PYTHAGOREAN_ONLY)
    rng = random.Random(subseed(seed, "micro:sets"))
    corpus = [st.random_interval_union(rng) for _ in range(2001)]
    set_pairs = list(zip(corpus, corpus[1:]))
    singles = [(A,) for A in corpus]
    lines = [(A.render(),) for A in common.input_sets(seed, 1500)]

    row = {
        "backend.add.us": per_op_us(lambda a, b: a + b, rat_pairs),
        "backend.mul.us": per_op_us(lambda a, b: a * b, rat_pairs),
        "backend.cmp.us": per_op_us(lambda a, b: a < b, rat_pairs),
        "scalars.mul.us": per_op_us(lambda a, b: a * b, tuples),
        "scalars.modulus.us": per_op_us(sc.modulus, [t[:1] for t in tuples]),
        "sets.interval_union.us": per_op_us(
            lambda A, B: st.interval_union(A.components + B.components),
            set_pairs),
        "sets.iu_intersect.us": per_op_us(st.iu_intersect, set_pairs),
        "sets.iu_union.us": per_op_us(st.iu_union, set_pairs),
        "sets.iu_minkowski.us": per_op_us(st.iu_minkowski, set_pairs),
        "sets.iu_subset.us": per_op_us(st.iu_subset, set_pairs),
        "sets.is_balanced.us": per_op_us(st.is_balanced, singles),
        "sets.is_absorbing.us": per_op_us(st.is_absorbing, singles),
        "topology.is_bounded_set.us": per_op_us(topology.is_bounded_set,
                                                singles),
        "setexpr.parse_set_expression.us": per_op_us(
            setexpr.parse_set_expression, lines),
    }
    return {"backend": evslab.BACKEND, "status": "ok", "metrics": row}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    requested = os.environ.get("EVSLAB_BACKEND", "")
    sys.path.insert(0, common.SRC)
    try:
        import evslab  # noqa: F401  (selects the backend)
    except ImportError as exc:
        print(json.dumps({"backend": requested, "status": "unavailable",
                          "reason": f"{type(exc).__name__}: {exc}"}))
        return
    print(json.dumps(run(args.seed)))


if __name__ == "__main__":
    main()
