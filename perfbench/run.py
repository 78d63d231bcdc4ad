"""evslab benchmark.

    python3 perfbench/run.py --workload {axioms,laws,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics named in BENCHMARK.json with tracing off; ``--trace 1`` makes one
untraced and one traced round and reports the per-layer metrics.  Every
run checks each result (see NOTES.md) and prints, as its last line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record, with the environment and the per-layer
detail, is written under ``.perfbench_out/``.
"""

import argparse
import json
import os
import statistics
import sys
import time

import common

MIN_SETUP_PROBES = 7
STARTUP_REPEATS = 5
MAX_LISTED_PROBLEMS = 20


class Section:
    """Per-unit times and results of one timed section."""

    def __init__(self):
        self.samples = {}
        self.round_sums = []
        self.first = {}
        self.attempted = 0
        self.problems = []  # (label, problems) per failed operation

    @property
    def medians(self):
        return {u: common.median(t) for u, t in self.samples.items()}

    @property
    def upper_quartiles(self):
        return {u: common.upper_quartile(t) for u, t in self.samples.items()}

    @property
    def wall(self):
        """Time to a complete round of reports: the sum of each unit's
        upper-quartile time.  On a shared machine the run time is a base
        speed with bursts of faster rounds; the median moves with the share
        of burst time in a run, the upper quartile tracks the base speed."""
        return sum(self.upper_quartiles.values())


def timed_section(units, gate, seconds, between_rounds=None):
    """Closed loop over ``units`` in whole rounds until ``seconds`` pass
    (at least one round), gating every result as it arrives (``gate``
    None: only raising calls are failures; see ``gate_first``).
    ``between_rounds`` runs after each round, outside the unit timings."""
    sec = Section()
    sec.samples = {u: [] for u, _ in units}
    round_walls = []
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        round_sum = 0.0
        for unit, fn in units:
            t0 = time.perf_counter()
            try:
                result, error = fn(), None
            except Exception as exc:  # a raising call is a failed operation
                result, error = None, exc
            dt = time.perf_counter() - t0
            sec.samples[unit].append(dt)
            round_sum += dt
            sec.attempted += 1
            if error is not None:
                problems = [f"{unit}: raised {type(error).__name__}: {error}"]
            else:
                problems = gate(unit, result) if gate is not None else []
            if problems:
                sec.problems.append((unit, problems))
            sec.first.setdefault(unit, result)
        sec.round_sums.append(round_sum)
        round_walls.append(time.perf_counter() - r0)
        if between_rounds is not None:
            between_rounds()
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(round_walls) > seconds:
            return sec


def gate_first(sec, gate):
    """Gate the first-round results of a section timed without a gate."""
    raised = {unit for unit, _ in sec.problems}
    for unit, result in sec.first.items():
        problems = gate(unit, result) if unit not in raised else []
        if problems:
            sec.problems.append((unit, problems))


def fresh_interpreter_times(args, repeats):
    """Wall times of fresh interpreters started with ``args``."""
    path = os.path.join(common.OUT, "probe.out")
    times = []
    for _ in range(repeats):
        status, wall, _ = common.run_child([sys.executable] + args, path)
        if status != 0:
            raise RuntimeError(f"probe {args} exited with {status}")
        times.append(wall)
    return times


def micro_rows(seed):
    """One microbenchmark row per backend, each in its own child."""
    rows = []
    for backend in common.BACKENDS:
        path = os.path.join(common.OUT, f"micro-{backend}.out")
        status, _, _ = common.run_child(
            [sys.executable, os.path.join(common.HERE, "micro.py"),
             "--seed", str(seed)],
            path, env=common.child_env(EVSLAB_BACKEND=backend))
        row = common.last_json_line(path)
        if status != 0 or row is None:
            row = {"backend": backend, "status": "unavailable",
                   "reason": f"child exited with {status}"}
        rows.append(row)
    return rows


def layer_catalog():
    """Every per-layer metric a traced run reports, at zero, with units."""
    import micro
    import tracing

    cat = {}
    for name in tracing.NAMES:
        cat[f"{name}.calls"] = (0, "count")
        cat[f"{name}.self_s"] = (0.0, "s")
    for layer in ("scalars", "instances", "core", "sets", "setlaws",
                  "topology", "setexpr", "cli"):
        cat[f"{layer}.self_s"] = (0.0, "s")
    for spec, tag in common.SPECS:
        cat[f"core.check_axioms.{tag}.s"] = (0.0, "s")
        cat[f"cli.all.{tag}.s"] = (0.0, "s")
        cat[f"cli.all.{tag}.elapsed_coverage"] = (0.0, "ratio")
    for name in ("core.check_primitive_scaling", "core.check_order_morphism",
                 "setlaws.check_absorbing_closure_laws",
                 "setlaws.check_balanced_closure_laws",
                 "setlaws.check_radial", "setlaws.check_absorbing_transport",
                 "setlaws.check_radial_transport",
                 "topology.check_bounded_laws",
                 "topology.check_local_base_conditions",
                 "cli.sets_input", "cli.bounded_input", "cli.audit_input"):
        cat[f"{name}.s"] = (0.0, "s")
    cat["cli.startup_s"] = (0.0, "s")
    for name in micro.METRICS:
        cat[name] = (0.0, "us")
    for name in ("core.samples_tried", "setlaws.samples_tried",
                 "topology.bounded_pairs", "cli.records", "cli.bytes_out"):
        cat[name] = (0, "count")
    for name in ("setlaws.corpus_accept_ratio",
                 "topology.bounded_pairs_exponent", "cli.elapsed_coverage",
                 "trace.overhead_frac"):
        cat[name] = (0.0, "ratio")
    cat["cli.input_sets_per_s"] = (0.0, "1/s")
    return cat


def measured_run(W, seed, seconds):
    # set-up probes are spread over the run, one after each round, so that
    # their median does not hang on one phase of a noisy machine
    fresh_interpreter_times(["-c", W.SETUP], 1)  # warm the bytecode cache
    setup = []

    def probe():
        setup.extend(fresh_interpreter_times(["-c", W.SETUP], 1))

    w = W(seed)
    sec = timed_section(w.units(), w.gate, seconds, probe)
    setup += fresh_interpreter_times(["-c", W.SETUP],
                                     max(0, MIN_SETUP_PROBES - len(setup)))
    rss = w.peak_rss_mb()
    final = w.final_gates()
    typical = sec.upper_quartiles
    metrics = {
        "wall_s": (sec.wall, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    detail = {
        "rounds": len(sec.round_sums),
        "wall_s_tail": common.tail(sec.round_sums),
        "unit_tail_ratio": common.tail(
            [t / m for u, ts in sec.samples.items()
             for m in [common.median(ts)] if m > 0 for t in ts]),
        "setup_s_samples": setup,
        "wall_s_of_unit_medians": sum(sec.medians.values()),
        "unit_upper_quartiles_s": typical,
        "unit_samples_s": sec.samples,
    }
    if W.SUBPROCESS:
        detail["input_sets_per_s"] = w.input_sets_per_s(typical)
    return [sec], final, metrics, detail


def trace_run(W, seed, backend):
    import tracing

    w = W(seed)
    ref = timed_section(w.units(), w.gate, 0)  # also warms caches
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wt = w.for_tracing()
        traced = timed_section(wt.trace_units(tracer), None, 0)
    finally:
        tracer.uninstall()
    # gated only now, so that the gate's own re-evaluation calls into
    # evslab are not counted as the program's
    gate_first(traced, wt.gate)
    # the traced round runs in-process; its untraced twin, run warm right
    # after it, is the reference for the tracing overhead
    twin = timed_section(w.trace_units(None), w.gate, 0)

    cat = layer_catalog()
    layer = {k: v for k, (v, _) in cat.items()}
    for name, (calls, self_s) in tracer.stats.items():
        layer[f"{name}.calls"] = calls
        layer[f"{name}.self_s"] = self_s
        group = name.split(".", 1)[0]
        layer[f"{group}.self_s"] = layer.get(f"{group}.self_s", 0.0) + self_s
    layer.update(w.call_seconds((ref if W.SUBPROCESS else twin).medians))
    layer.update(wt.counts(traced.first))
    extra, probe_checks = w.probes(ref)
    layer.update(extra)
    rows = micro_rows(seed)
    active = next((r for r in rows if r.get("backend") == backend
                   and r.get("status") == "ok"), None)
    if active is not None:
        layer.update(active["metrics"])
    layer["cli.startup_s"] = statistics.median(fresh_interpreter_times(
        ["-m", "evslab.cli", "--help"], STARTUP_REPEATS))
    layer["trace.overhead_frac"] = traced.wall / twin.wall - 1

    spans_path = os.path.join(common.OUT,
                              f"spans-{W.name}-seed{seed}.json")
    with open(spans_path, "w") as fh:
        json.dump(tracer.span_records(), fh)
    final = w.final_gates() + probe_checks
    detail = {"backends": rows, "spans": spans_path,
              "traced_round_s": traced.wall,
              "untraced_round_s": twin.wall,
              "layer": {k: layer[k] for k in sorted(layer)}}
    metrics = {k: (layer[k], cat[k][1]) for k in layer}
    return [ref, traced, twin], final, metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="evslab benchmark (see perfbench/NOTES.md)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not common.source_present():
        print(f"evslab sources not found under {common.SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)
    import evslab
    if not os.path.abspath(evslab.__file__).startswith(common.SRC + os.sep):
        print(f"imported evslab from {evslab.__file__}, not from this "
              f"checkout", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(common.OUT, exist_ok=True)

    W = workloads.WORKLOADS[args.workload]
    if args.trace:
        sections, final, metrics, detail = trace_run(W, args.seed,
                                                     evslab.BACKEND)
        listed = spec["per_layer"]
    else:
        sections, final, metrics, detail = measured_run(W, args.seed,
                                                        args.seconds)
        listed = spec["end_to_end"]

    problems = [p for s in sections for p in s.problems] + [
        (label, p) for label, p in final if p]
    attempted = sum(s.attempted for s in sections) + len(final)
    failed = len(problems)
    env = common.environment(evslab.BACKEND, W.name, W.budget, args.seed,
                             args.seconds, args.trace)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                "unit": m["unit"]} for m in listed},
    }
    record = dict(result, environment=env, detail=detail,
                  failed_frac=failed / attempted,
                  problems=[p for _, ps in problems for p in ps])
    out_path = os.path.join(
        common.OUT, f"result-{W.name}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print("environment: " + json.dumps(env))
    for p in record["problems"][:MAX_LISTED_PROBLEMS]:
        print("FAILED: " + p)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted} ratio")
    if args.trace:
        listed_names = {m["name"] for m in listed}
        for name, value in detail["layer"].items():
            if name not in listed_names:
                print(f"layer {name} = {value} {metrics[name][1]}")
    else:
        tail, unit_tail = detail["wall_s_tail"], detail["unit_tail_ratio"]
        print(f"wall_s: upper quartile per unit over {detail['rounds']} "
              f"rounds (sum of unit medians "
              f"{detail['wall_s_of_unit_medians']} s); tail percentile "
              f"{tail['percentile']} = {tail['value']} s over "
              f"{tail['samples']} round samples; per-unit time over its "
              f"median at percentile {unit_tail['percentile']} = "
              f"{unit_tail['value']} over {unit_tail['samples']} samples")
        if "input_sets_per_s" in detail:
            print(f"input_sets_per_s = {detail['input_sets_per_s']} 1/s")
    print(f"record: {out_path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
