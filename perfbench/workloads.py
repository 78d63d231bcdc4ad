"""The three workloads.

Each workload builds its inputs from the seed, lists its units (one public
call, or one CLI invocation, each), checks every result against the
verdict contract (the gate behind ``failed``) and reads per-layer counts
from the returned outcomes.  All three are closed loops with one client.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import sys

import common
from evslab import MORPHISMS, PLANTED_FAULTS, cli, core, make_instance
from evslab import scalars as sc
from evslab import sets as st
from evslab import setlaws, topology
from evslab.outcome import PROVEN, REFUTED, UNFALSIFIED, subseed

VERDICTS = (PROVEN, REFUTED, UNFALSIFIED)


# ------------------------------------------------------------------ gates

def outcome_problems(label, o, confirm=None):
    """Why one outcome breaks the verdict contract.

    ``confirm`` is given only for checks whose Refuted verdict is a finding
    by definition; it re-evaluates the witness independently.
    """
    verdict = getattr(o, "verdict", None)
    if verdict not in VERDICTS:
        return [f"{label}: verdict {verdict!r} is not one of {VERDICTS}"]
    if verdict != REFUTED:
        return []
    if not o.witness:
        return [f"{label}: Refuted without a witness"]
    if confirm is None:
        return [f"{label}: Refuted on a clean instance"]
    try:
        confirmed = confirm(o)
    except Exception as exc:  # a witness that cannot be replayed fails
        return [f"{label}: witness could not be re-evaluated: {exc!r}"]
    return [] if confirmed else [
        f"{label}: witness not confirmed by re-evaluation"]


def outcomes_problems(label, outcomes, confirms=None):
    if not isinstance(outcomes, dict) or not outcomes:
        return [f"{label}: returned no outcomes"]
    confirms = confirms or {}
    problems = []
    for key, o in outcomes.items():
        problems += outcome_problems(f"{label}[{key}]", o, confirms.get(key))
    return problems


def confirm_lattice_radial(E):
    """The lattice is not radial: every nonzero scalar fixes both witness
    points, so an absorbing set contains both and none separates them."""
    lams = (sc.scalar(1, 2), sc.scalar(-3), sc.scalar(0, 1), sc.scalar(2, 5))

    def confirm(o):
        x, y = o.witness["_raw"][:2]
        return not E.eq(x, y) and all(
            E.eq(E.scale(lam, z), z) for lam in lams for z in (x, y))

    return confirm


def confirm_local_base_v(o):
    """Condition (v): lambda lies within the first eps of alpha, and
    |lambda|.x falls outside |alpha|.x + W."""
    w = o.witness
    W, x, alpha, eps_grid = w["_raw"]
    lam = sc.parse_scalar(w["lambda"])
    eps = eps_grid[0]
    if sc.modulus_squared(lam - alpha) >= eps * eps:
        return False
    value, base = sc.modulus(lam) * x, sc.modulus(alpha) * x
    return value < base or not W.member(value - base)


# each planted fault, the axiom it breaks and a re-evaluation of its witness
PLANTED = {
    "halfline#no-modulus": ("A2.scale", lambda E, w: (
        E.leq(w["_raw_x"], w["_raw_y"])
        and not E.leq(E.scale(w["_raw_alpha"], w["_raw_x"]),
                      E.scale(w["_raw_alpha"], w["_raw_y"])))),
    "twisted:2#no-zero-case": ("A4", lambda E, w: (
        E.eq(E.scale(w["_raw_alpha"], w["_raw_x"]), E.zero)
        != (w["_raw_alpha"].is_zero() or E.eq(w["_raw_x"], E.zero)))),
    "lattice2#no-canonicalization": ("A1.comm", lambda E, w: (
        not E.eq(E.add(w["_raw_x"], w["_raw_y"]),
                 E.add(w["_raw_y"], w["_raw_x"])))),
}


# -------------------------------------------------------------- workloads

class Workload:
    name = ""
    budget = 0
    SETUP = ""  # code a fresh interpreter runs to get ready
    SUBPROCESS = False  # whether the timed units run in child processes

    def __init__(self, seed):
        self.seed = seed

    def units(self):
        raise NotImplementedError

    def trace_units(self, tracer):
        """The units of the traced round (in-process for every workload)."""
        return self.units()

    def for_tracing(self):
        """A workload whose instances are built while the tracer is on."""
        return type(self)(self.seed)

    def gate(self, unit, result):
        raise NotImplementedError

    def final_gates(self):
        """(label, problems) per operation checked after the timed section."""
        return []

    def counts(self, results):
        return {}

    def call_seconds(self, medians):
        return {}

    def probes(self, ref):
        """Extra per-layer metrics measured outside the traced round."""
        return {}, []

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Axioms(Workload):
    """The axiom suite, primitive scaling and order morphisms on the six
    shipped instances: bound by exact rational arithmetic."""

    name = "axioms"
    budget = 500
    SETUP = (
        "import evslab\n"
        f"E = [evslab.make_instance(s) for s, _ in {common.SPECS!r}]\n"
        f"M = [evslab.MORPHISMS[m]() for m in {common.MORPHISM_NAMES!r}]\n")

    def __init__(self, seed):
        super().__init__(seed)
        self.instances = [(tag, make_instance(spec))
                          for spec, tag in common.SPECS]
        self.morphisms = [(m, MORPHISMS[m]()) for m in common.MORPHISM_NAMES]

    def units(self):
        B, s = self.budget, self.seed
        out = []
        for tag, E in self.instances:
            out.append((f"core.check_axioms.{tag}",
                        lambda E=E: core.check_axioms(E, B, s)))
        for tag, E in self.instances:
            out.append((f"core.check_primitive_scaling.{tag}",
                        lambda E=E: core.check_primitive_scaling(E, B, s)))
        for m, phi in self.morphisms:
            out.append((f"core.check_order_morphism.{m}",
                        lambda phi=phi: core.check_order_morphism(
                            phi.forward, phi.domain, phi.codomain, B, s)))
        return out

    def gate(self, unit, result):
        if unit.startswith("core.check_axioms."):
            return outcomes_problems(unit, result)
        return outcome_problems(unit, result)

    def final_gates(self):
        out = []
        for fault, (axiom, reeval) in PLANTED.items():
            label = f"planted {fault}"
            try:
                E = PLANTED_FAULTS[fault]()
                o = core.check_axioms(E, self.budget, self.seed).get(axiom)
                if o is None or not o.refuted or not o.witness:
                    problems = [f"{label}: {axiom} not refuted"]
                elif not reeval(E, o.witness):
                    problems = [f"{label}: witness did not re-evaluate"]
                else:
                    problems = []
            except Exception as exc:  # a raising checker is a failure
                problems = [f"{label}: raised {type(exc).__name__}: {exc}"]
            out.append((label, problems))
        return out

    def counts(self, results):
        tried = 0
        for unit, result in results.items():
            if result is None:  # the call raised; the gate counted it
                continue
            outcomes = result.values() if isinstance(result, dict) \
                else [result]
            tried += sum(o.samples_tried for o in outcomes)
        return {"core.samples_tried": tried}

    def call_seconds(self, medians):
        out = {f"{u}.s": t for u, t in medians.items()
               if u.startswith("core.check_axioms.")}
        out["core.check_primitive_scaling.s"] = sum(
            t for u, t in medians.items()
            if u.startswith("core.check_primitive_scaling."))
        out["core.check_order_morphism.s"] = sum(
            t for u, t in medians.items()
            if u.startswith("core.check_order_morphism."))
        return out


LAW_CALLS = ("setlaws.check_absorbing_closure_laws",
             "setlaws.check_balanced_closure_laws",
             "topology.check_bounded_laws",
             "topology.check_local_base_conditions")


class Laws(Workload):
    """Closure, bounded and local-base laws, transport and radial checks on
    the half line: bound by set algebra and the exact deciders."""

    name = "laws"
    budget = 1000
    reports = 3  # sub-seeds per round, to average over corpora
    SETUP = (
        "import evslab\n"
        "H = evslab.make_instance('halfline')\n"
        "base = evslab.usual_base(8)\n"
        f"E = [evslab.make_instance(s) for s, _ in {common.SPECS!r}]\n"
        f"M = [evslab.MORPHISMS[m]() for m in {common.MORPHISM_NAMES!r}]\n")

    def __init__(self, seed):
        super().__init__(seed)
        self.seeds = [subseed(seed, f"laws:{k}") for k in range(self.reports)]
        self.H = make_instance("halfline")
        self.base = topology.usual_base(8)
        self.instances = [(tag, make_instance(spec))
                          for spec, tag in common.SPECS]
        self.morphisms = [(m, MORPHISMS[m]()) for m in common.MORPHISM_NAMES]
        self.confirms = {tag: confirm_lattice_radial(E)
                         for tag, E in self.instances if tag == "lattice2"}
        self.drawn = self.rejected = 0  # closure-law corpus draws

    def units(self):
        B, H = self.budget, self.H
        out = []
        for k, s in enumerate(self.seeds):
            p = f"r{k}."
            out += [
                (p + LAW_CALLS[0], lambda s=s: (
                    setlaws.check_absorbing_closure_laws(H, B, s))),
                (p + LAW_CALLS[1], lambda s=s: (
                    setlaws.check_balanced_closure_laws(H, B, s))),
                (p + LAW_CALLS[2], lambda s=s: (
                    topology.check_bounded_laws(H, B, s))),
                (p + LAW_CALLS[3], lambda s=s: (
                    topology.check_local_base_conditions(self.base, B, s))),
            ]
            for m, phi in self.morphisms:
                out.append((f"{p}setlaws.check_absorbing_transport.{m}",
                            lambda phi=phi, s=s: (
                                setlaws.check_absorbing_transport(phi, B, s))))
                out.append((f"{p}setlaws.check_radial_transport.{m}",
                            lambda phi=phi, s=s: (
                                setlaws.check_radial_transport(phi, B, s))))
            for tag, E in self.instances:
                out.append((f"{p}setlaws.check_radial.{tag}",
                            lambda E=E, s=s: setlaws.check_radial(E, B, s)))
        return out

    def trace_units(self, tracer):
        """In the closure-law calls, count the sets drawn by
        ``random_interval_union`` and those a corpus filter rejects: a
        drawn set whose ``is_absorbing``/``is_balanced`` verdict is not
        Proven."""
        units = self.units()
        if tracer is None:
            return units
        drawn, rejected = {}, set()  # drawn sets are kept, so ids stay unique

        def on_draw(args, A):
            drawn[id(A)] = A

        def on_filter(args, verdict):
            if args and id(args[0]) in drawn and not verdict.proven:
                rejected.add(id(args[0]))

        hooks = (("sets.random_interval_union", on_draw),
                 ("sets.is_absorbing", on_filter),
                 ("sets.is_balanced", on_filter))

        def counted(fn):
            def run():
                for name, hook in hooks:
                    tracer.hooks[name].append(hook)
                try:
                    return fn()
                finally:
                    for name, hook in hooks:
                        tracer.hooks[name].remove(hook)
                    self.drawn += len(drawn)
                    self.rejected += len(rejected)
                    drawn.clear()
                    rejected.clear()
            return run

        return [(u, counted(fn) if "closure_laws" in u else fn)
                for u, fn in units]

    def gate(self, unit, result):
        call = unit.split(".", 1)[1]
        if call.startswith("setlaws.check_radial."):
            tag = call.rsplit(".", 1)[1]
            return outcome_problems(unit, result, self.confirms.get(tag))
        if call.startswith("setlaws.check_") and "transport" in call:
            return outcome_problems(unit, result)
        if call == "topology.check_local_base_conditions":
            return outcomes_problems(unit, result,
                                     {"v": confirm_local_base_v})
        return outcomes_problems(unit, result)

    @staticmethod
    def bounded_pairs(outcomes):
        return (outcomes["bounded.sum"].samples_tried
                + outcomes["bounded.subset"].samples_tried)

    def counts(self, results):
        tried = pairs = 0
        for unit, result in results.items():
            if result is None:  # the call raised; the gate counted it
                continue
            call = unit.split(".", 1)[1]
            if call.startswith("setlaws."):
                outcomes = result.values() if isinstance(result, dict) \
                    else [result]
                tried += sum(o.samples_tried for o in outcomes)
            if call == LAW_CALLS[2]:
                pairs += self.bounded_pairs(result)
        ratio = 1 - self.rejected / self.drawn if self.drawn else 0.0
        return {"setlaws.samples_tried": tried,
                "setlaws.corpus_accept_ratio": ratio,
                "topology.bounded_pairs": pairs}

    def call_seconds(self, medians):
        totals = {}
        for unit, t in medians.items():
            call = unit.split(".", 1)[1]
            if call.startswith(("setlaws.check_radial.",
                                "setlaws.check_absorbing_transport.",
                                "setlaws.check_radial_transport.")):
                call = call.rsplit(".", 1)[0]
            totals[f"{call}.s"] = totals.get(f"{call}.s", 0.0) + t
        return {k: v / self.reports for k, v in totals.items()}

    def probes(self, ref):
        """Bounded-law scaling exponent: log ratio of the partner pairs
        tried at the budget and at a third of it."""
        low = self.budget // 3
        high_pairs = sum(self.bounded_pairs(r) for u, r in ref.first.items()
                         if u.endswith(LAW_CALLS[2]) and r is not None)
        low_pairs, checked = 0, []
        for s in self.seeds:
            label = f"check_bounded_laws at budget {low}"
            try:
                out = topology.check_bounded_laws(self.H, low, s)
                checked.append((label, outcomes_problems(label, out)))
                low_pairs += self.bounded_pairs(out)
            except Exception as exc:  # a raising checker is a failure
                checked.append((label, [f"{label}: raised {exc!r}"]))
        exponent = math.log(high_pairs / low_pairs) / math.log(
            self.budget / low) if high_pairs and low_pairs else 0.0
        return {"topology.bounded_pairs_exponent": exponent}, checked


LAW_SUITES = frozenset({"axioms", "sets", "bounded", "morphism"})
# Refuted records that are findings by definition, as (instance, checkId)
FINDINGS = frozenset({("lattice2", "radial"), ("halfline", "localbase.v")})
INPUT_UNITS = ("sets_input", "bounded_input", "audit_input")


class Cli(Workload):
    """The users' command lines, one subprocess at a time: `all` on the six
    instances, then three commands that decide a seeded --input file."""

    name = "cli"
    SUBPROCESS = True
    budget = 200
    input_sets = 2000
    input_budget = 1
    oracle_sample = 300
    SETUP = "import evslab.cli\n"

    def __init__(self, seed):
        super().__init__(seed)
        self.sets = common.input_sets(seed, self.input_sets)
        os.makedirs(common.OUT, exist_ok=True)
        self.input_path = os.path.join(common.OUT, f"cli-input-{seed}.txt")
        with open(self.input_path, "w", encoding="utf-8") as fh:
            fh.writelines(A.render() + "\n" for A in self.sets)
        flags = ["--format", "jsonlines", "--findings-ok"]
        law = ["--budget", str(self.budget), "--seed", str(seed)] + flags
        inp = ["--input", self.input_path, "--budget",
               str(self.input_budget), "--seed", str(seed)] + flags
        self.commands = [(f"cli.all.{tag}", ["all", spec] + law)
                         for spec, tag in common.SPECS]
        self.commands += [
            ("cli.sets_input", ["sets", "halfline"] + inp),
            ("cli.bounded_input", ["bounded", "halfline"] + inp),
            ("cli.audit_input", ["audit"] + inp),
        ]
        self.digests = {}
        self.first = {}  # unit -> summary of its first repetition
        self.peak_rss_kb = 0

    def units(self):
        return [(u, self._subprocess(u, args)) for u, args in self.commands]

    def trace_units(self, tracer):
        return [(u, self._in_process(args)) for u, args in self.commands]

    def for_tracing(self):
        return self  # the CLI builds its own instances

    def _subprocess(self, unit, args):
        path = os.path.join(common.OUT, f"cli-{self.seed}-{unit}.out")
        argv = [sys.executable, "-m", "evslab.cli"] + args

        def run():
            code, _, rss = common.run_child(argv, path)
            self.peak_rss_kb = max(self.peak_rss_kb, rss)
            return {"code": code, "path": path}

        return run

    @staticmethod
    def _in_process(args):
        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    cli.main.main(args=list(args), prog_name="evs-lab",
                                  standalone_mode=False)
                    code = 0
                except SystemExit as exc:
                    code = exc.code or 0
            return {"code": code, "text": buf.getvalue()}

        return run

    def gate(self, unit, result):
        if "text" in result:
            text = result["text"]
        else:
            with open(result["path"], encoding="utf-8") as fh:
                text = fh.read()
        try:
            records = [json.loads(ln) for ln in text.splitlines()
                       if ln.strip()]
        except ValueError:
            return [f"{unit}: output does not parse"]
        if not records:
            return [f"{unit}: printed no records"]
        problems = []
        law_refuted = False
        for r in records:
            verdict = r.get("verdict")
            if verdict not in VERDICTS:
                problems.append(f"{unit}: verdict {verdict!r}")
            elif verdict == REFUTED:
                law_refuted |= r.get("suite") in LAW_SUITES
                user_set = ".input" in r["checkId"] or \
                    r["checkId"].startswith("audit.")
                if not r.get("witness"):
                    problems.append(f"{unit}: {r['checkId']} Refuted "
                                    f"without a witness")
                elif not user_set and \
                        (r.get("instance"), r["checkId"]) not in FINDINGS:
                    problems.append(f"{unit}: {r['checkId']} Refuted on a "
                                    f"clean instance")
        expected = 1 if law_refuted else 0
        if result["code"] != expected:
            problems.append(f"{unit}: exit status {result['code']}, "
                            f"expected {expected}")
        digest = hashlib.sha256(json.dumps(
            [{k: v for k, v in r.items() if k != "elapsed"} for r in records],
            sort_keys=True).encode()).hexdigest()
        if self.digests.setdefault(unit, digest) != digest:
            problems.append(f"{unit}: records differ from the first "
                            f"repetition")
        if unit not in self.first:
            self.first[unit] = {
                "records": len(records),
                "bytes": len(text.encode()),
                "elapsed": sum(r.get("elapsed", 0.0) for r in records),
                "verdicts": {r["checkId"]: r.get("verdict") for r in records
                             if unit.endswith(INPUT_UNITS)},
            }
        return problems

    def final_gates(self):
        """Input-set verdicts against the brute-force oracles, on a seeded
        sample of the input file."""
        rng = random.Random(subseed(self.seed, "cli:oracle"))
        sample = rng.sample(range(len(self.sets)), self.oracle_sample)
        got = {}
        for unit in INPUT_UNITS:
            got.update(self.first.get(f"cli.{unit}", {}).get("verdicts", {}))

        def verdict(ok):
            return PROVEN if ok else REFUTED

        out = []
        for i in sample:
            A, label = self.sets[i], f"input set {i}"
            expect = {
                f"sets.input{i}.balanced": verdict(
                    st.brute_balanced_violation(A) is None),
                f"sets.input{i}.absorbing": verdict(
                    st.brute_absorbing_verdict(A)),
                f"bounded.input{i}": verdict(
                    topology.definition_bounded_grid(A)),
                f"audit.gen{i}": verdict(topology.is_usual_open(A)),
            }
            out.append((label, [
                f"{label} ({A.render()}): {check} is {got.get(check)}, "
                f"oracle says {v}"
                for check, v in expect.items() if got.get(check) != v]))
        return out

    def peak_rss_mb(self):
        return self.peak_rss_kb / 1024

    def counts(self, results):
        """Samples tried, read from the `all` records of a round."""
        core_n = setlaws_n = pairs = 0
        for unit, result in results.items():
            if not unit.startswith("cli.all.") or result is None:
                continue
            for line in result["text"].splitlines():
                r = json.loads(line)
                check, n = r["checkId"], r["samplesTried"]
                if r["suite"] == "axioms":
                    core_n += n
                elif check.startswith("sets.") or check == "radial":
                    setlaws_n += n
                elif check in ("bounded.sum", "bounded.subset"):
                    pairs += n
        return {"core.samples_tried": core_n,
                "setlaws.samples_tried": setlaws_n,
                "topology.bounded_pairs": pairs}

    def call_seconds(self, medians):
        return {f"{u}.s": t for u, t in medians.items()}

    def input_sets_per_s(self, medians):
        busy = sum(medians[f"cli.{u}"] for u in INPUT_UNITS)
        return len(INPUT_UNITS) * len(self.sets) / busy

    def probes(self, ref):
        medians = {u: common.median(t) for u, t in ref.samples.items()}
        alls = [u for u, _ in self.commands if u.startswith("cli.all.")]
        firsts = [self.first[u] for u, _ in self.commands if u in self.first]
        coverage = {u: self.first[u]["elapsed"] / medians[u] for u in alls
                    if u in self.first}
        metrics = {
            "cli.records": sum(f["records"] for f in firsts),
            "cli.bytes_out": sum(f["bytes"] for f in firsts),
            "cli.elapsed_coverage": sum(
                self.first[u]["elapsed"] for u in coverage) / sum(
                medians[u] for u in coverage) if coverage else 0.0,
            "cli.input_sets_per_s": self.input_sets_per_s(medians),
        }
        metrics.update({f"{u}.elapsed_coverage": c
                        for u, c in coverage.items()})
        return metrics, []


WORKLOADS = {w.name: w for w in (Axioms, Laws, Cli)}
