"""Command-line driver: run verification suites and emit deterministic
reports.

Every record carries the check id, instance, verdict, rendered witness,
sample count and seed; jsonlines output is byte-stable across runs for a
fixed seed except for the elapsed field.  Law suites fail the process on
any Refuted verdict; the audit and local-base suites report Refuted
verdicts as findings, which keep exit status 0 under --findings-ok.
The instance suites and ``all`` run the rows of one table, ``CHECKS``;
the eight subcommands are the rows of another, ``COMMANDS``, from which
``main`` builds its ``argparse`` parser.

Importing this module loads no other evslab module but the backend:
every row reaches its driver through the package's lazy attributes
(``evslab.core.check_axioms``, ...), so a command loads a module when it
first runs code in it.  Building the instance or morphism loads
``instances``, ``core``, ``scalars`` and ``outcome``; beyond those,
``axioms`` loads nothing, ``radial`` and ``all`` load ``setlaws``, with
``sets`` where a separator is built (halfline, cone:n, dict2), ``sets``
loads ``setlaws`` and ``sets``, ``bounded`` and ``localbase`` load
``sets`` and ``topology``, ``all halfline`` loads all three, and
``morphism`` loads ``setlaws`` and ``sets`` for a map with a
transport.  An --input file, or the hint that a suite needs one, adds
``setexpr`` and ``sets``; ``audit`` loads ``setexpr``, ``sets`` and
``topology``.
"""

import argparse
import json
import os
import sys
import time
from typing import Callable, List, NamedTuple, Optional

import evslab

DEFAULT_SEED = 42
FINDING_SUITES = frozenset({"radial", "localbase", "audit"})


_to_json = json.JSONEncoder(sort_keys=True).encode


class UsageError(Exception):
    """A mistake in the command line or in an --input file: exit 2."""


class ReportRecord:
    def __init__(self, check_id: str, instance: str, suite: str,
                 outcome: "evslab.outcome.CheckOutcome", elapsed: float):
        self.check_id = check_id
        self.instance = instance
        self.suite = suite
        self.outcome = outcome
        self.elapsed = elapsed

    def public_witness(self) -> Optional[dict]:
        if self.outcome.witness is None:
            return None
        return {k: v if isinstance(v, str) else str(v)
                for k, v in self.outcome.witness.items()
                if not k.startswith("_")}

    def to_json(self) -> str:
        d = {
            "checkId": self.check_id,
            "instance": self.instance,
            "suite": self.suite,
            "verdict": self.outcome.verdict,
            "samplesTried": self.outcome.samples_tried,
            "seed": self.outcome.seed,
            "elapsed": round(self.elapsed, 6),
        }
        w = self.public_witness()
        if w is not None:
            d["witness"] = w
        if self.outcome.detail:
            d["detail"] = self.outcome.detail
        return _to_json(d)

    def to_text(self) -> str:
        parts = [f"{self.check_id:<28} {self.instance:<24} "
                 f"{self.outcome.verdict}"]
        if self.outcome.detail:
            parts.append(f"  - {self.outcome.detail}")
        w = self.public_witness()
        if w:
            parts.append("  - witness: " + ", ".join(
                f"{k}={v}" for k, v in sorted(w.items())))
        return "\n".join(parts)


def _timed(check_id, instance, suite, thunk) -> List[ReportRecord]:
    """The records of ``thunk()``: its one outcome, or one per entry of
    its dict, the entry's key appended to ``check_id``.  The measured
    time is shared evenly among them."""
    t0 = time.perf_counter()
    out = thunk()
    if not isinstance(out, dict):
        out = {"": out}
    share = (time.perf_counter() - t0) / max(1, len(out))
    return [ReportRecord(check_id + key, instance, suite, outcome, share)
            for key, outcome in out.items()]


# ------------------------------------------------------------- check table

class Check(NamedTuple):
    """One instance check.  ``check_id`` prefixes the keys of a driver
    that returns a dict, names the one outcome of any other driver, and
    carries ``{i}`` for a decider run on each --input set.  A driver is
    called as ``driver(E, budget, seed, inputs)``, ``inputs`` being None
    without a file; an ``{i}`` decider as ``driver(E, A, i, seed)``."""
    suite: str
    check_id: str
    driver: Callable
    applies: Callable = lambda E: True


def _local_base(E, budget, seed, family):
    topology = evslab.topology
    try:
        return topology.check_local_base_conditions(
            topology.usual_base(8) if family is None else family,
            budget, seed)
    except ValueError as exc:  # a family member without theta, or none
        raise UsageError(str(exc))


def _interval_sets(E):  # the carrier decides boundedness and set laws
    return evslab.instances.has_interval_sets(E)


def _readable(E):  # an {i} row runs on --input sets, so needs a grammar
    return E.element_kind in evslab.setexpr.PARSERS


def _bounded_input(E, A, i, seed):
    return evslab.topology.is_bounded_set(
        A, evslab.outcome.subseed(seed, f"in{i}:bnd"))


# rows in report order; each driver reaches its module through the
# package's lazy attributes, so a command loads only the modules it runs,
# and looks the function up on each call, so a patched or traced library
# function is the one that runs
CHECKS = (
    Check("axioms", "axioms.",
          lambda E, b, s, _: evslab.core.check_axioms(E, b, s)),
    Check("axioms", "structure.primitive-scaling",
          lambda E, b, s, _: evslab.core.check_primitive_scaling(E, b, s)),
    Check("sets", "sets.",
          lambda E, b, s, _:
          evslab.setlaws.check_absorbing_closure_laws(E, b, s),
          _interval_sets),
    Check("sets", "sets.",
          lambda E, b, s, _:
          evslab.setlaws.check_balanced_closure_laws(E, b, s),
          _interval_sets),
    Check("sets", "sets.input{i}.balanced",
          lambda E, A, i, s: evslab.sets.is_balanced(A), _readable),
    Check("sets", "sets.input{i}.absorbing",
          lambda E, A, i, s: evslab.sets.is_absorbing(A), _readable),
    # the law ids already start with "bounded."
    Check("bounded", "",
          lambda E, b, s, _: evslab.topology.check_bounded_laws(E, b, s),
          _interval_sets),
    Check("bounded", "bounded.input{i}", _bounded_input, _interval_sets),
    Check("localbase", "localbase.", _local_base, _interval_sets),
    Check("radial", "radial",
          lambda E, b, s, _: evslab.setlaws.check_radial(E, b, s)),
)


# ------------------------------------------------------------ suite runners

def run_suite(suite: str, spec: str, budget: int, seed: int,
              input_path: Optional[str] = None) -> List[ReportRecord]:
    """The records of the ``CHECKS`` rows of ``suite`` that apply to the
    instance, or of every row for ``all``: each law row in table order,
    then the ``{i}`` rows on each --input set in turn.  The
    ``structure.*`` rows run only under ``all``.  Whether an ``{i}`` row
    applies is asked only with an --input file, which must hold a set,
    or when no law row applies, to say whether a file would help."""
    try:
        E = evslab.instances.make_instance(spec)
    except ValueError as exc:
        raise UsageError(str(exc))
    rows = [r for r in CHECKS if suite == "all" or (
        r.suite == suite and not r.check_id.startswith("structure."))]
    laws = [r for r in rows if "{i}" not in r.check_id and r.applies(E)]
    each = [r for r in rows if "{i}" in r.check_id and (
        input_path is not None or not laws) and r.applies(E)]
    if not laws and (not each or input_path is None):
        need = " without --input" if each else ""
        raise UsageError(
            f"no {suite} check applies to instance {spec!r}{need}")
    inputs = _load_sets(input_path, E.element_kind, nonempty=bool(each))
    if each and not inputs:
        raise UsageError(f"{input_path} holds no set")
    recs: List[ReportRecord] = []
    for r in laws:
        recs += _timed(r.check_id, E.name, r.suite,
                       lambda: r.driver(E, budget, seed, inputs))
    for i, A in enumerate(inputs or ()):
        for r in each:
            recs += _timed(r.check_id.format(i=i), E.name, r.suite,
                           lambda: r.driver(E, A, i, seed))
    return recs


# thin calls by name, which perfbench/tracing.py wraps
def run_all(spec: str, budget: int, seed: int) -> List[ReportRecord]:
    return run_suite("all", spec, budget, seed)


def run_sets(spec: str, budget: int, seed: int,
             input_path: Optional[str]) -> List[ReportRecord]:
    return run_suite("sets", spec, budget, seed, input_path)


def run_bounded(spec: str, budget: int, seed: int,
                input_path: Optional[str]) -> List[ReportRecord]:
    return run_suite("bounded", spec, budget, seed, input_path)


def run_audit(input_path: str) -> List[ReportRecord]:
    gens = _load_sets(input_path, "halfline")
    if not gens:
        raise UsageError("audit needs at least one generator")
    recs: List[ReportRecord] = []
    for i, G in enumerate(gens):
        recs += _timed(f"audit.gen{i}", "halfline", "audit",
                       lambda: evslab.topology.audit_generator(G))
    recs += _timed("audit.family", "halfline", "audit",
                   lambda: evslab.topology.finest_topology_audit(
                       gens, [r.outcome for r in recs]))
    return recs


def run_morphism(name: str, budget: int, seed: int) -> List[ReportRecord]:
    shipped = evslab.instances.MORPHISMS
    if name not in shipped:
        raise UsageError(
            f"unknown morphism {name!r}; shipped: "
            + ", ".join(sorted(shipped)))
    phi = shipped[name]()
    tag = f"{phi.domain.name}->{phi.codomain.name}"
    recs = _timed(
        f"morphism.{name}.laws", tag, "morphism",
        lambda: evslab.core.check_order_morphism(
            phi.forward, phi.domain, phi.codomain, budget, seed))
    if phi.transport is not None:
        recs += _timed(
            f"morphism.{name}.transport.absorbing", tag, "morphism",
            lambda: evslab.setlaws.check_absorbing_transport(
                phi, budget, seed))
        recs += _timed(
            f"morphism.{name}.transport.radial", tag, "morphism",
            lambda: evslab.setlaws.check_radial_transport(
                phi, budget, seed))
    return recs


def _load_sets(input_path: Optional[str], kind: str,
               nonempty: bool = False):
    if input_path is None:
        return None
    try:
        with open(input_path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {input_path}: {exc}")
    out = []
    for lineno, ln in enumerate(lines, start=1):
        if not ln or ln.startswith("#"):
            continue
        try:
            A = evslab.setexpr.parse_set_expression(ln, kind)
        except ValueError as exc:
            raise UsageError(f"{input_path}:{lineno}: {exc}")
        if nonempty and A.is_empty():
            raise UsageError(f"{input_path}:{lineno}: set is empty")
        out.append(A)
    return out


# ------------------------------------------------------------------- output

def _emit(records: List[ReportRecord], fmt: str, findings_ok: bool) -> int:
    failures = 0
    findings = 0
    for r in records:
        if not r.outcome.refuted:
            continue
        if r.suite in FINDING_SUITES:
            findings += 1
        else:
            failures += 1
    if fmt == "jsonlines":
        lines = [r.to_json() for r in records]
    else:
        lines = [r.to_text() for r in records]
        lines.append(f"-- {len(records)} checks, {failures} failures, "
                     f"{findings} findings")
    if lines:
        print("\n".join(lines))
    if failures:
        return 1
    if findings and not findings_ok:
        return 1
    return 0


def _resolve_seed(seed: Optional[int]) -> int:
    if seed is not None:
        return seed
    env = os.environ.get("EVS_LAB_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise UsageError(
            f"EVS_LAB_SEED must be an integer, not {env!r}")


# ------------------------------------------------------------ command line

class Command(NamedTuple):
    """One subcommand: ``positional`` names its argument, if any,
    ``input`` is None (no --input), "optional" or "required", and
    ``run(arg, input_path, budget, seed)`` returns its records."""
    name: str
    help: str
    positional: Optional[str]
    input: Optional[str]
    run: Callable


# the run_* names are looked up on each call, so a traced one is the one
# that runs
COMMANDS = (
    Command("axioms", "Run the axiom suite on INSTANCE.", "INSTANCE", None,
            lambda spec, _, b, s: run_suite("axioms", spec, b, s)),
    Command("sets", "Closure laws and per-set deciders on INSTANCE.",
            "INSTANCE", "optional",
            lambda spec, path, b, s: run_sets(spec, b, s, path)),
    Command("radial", "Per-pair separation check on INSTANCE.", "INSTANCE",
            None, lambda spec, _, b, s: run_suite("radial", spec, b, s)),
    Command("bounded", "Boundedness laws and per-set verdicts on INSTANCE.",
            "INSTANCE", "optional",
            lambda spec, path, b, s: run_bounded(spec, b, s, path)),
    Command("localbase",
            "Local-base conditions for a candidate family at theta.",
            "INSTANCE", "optional",
            lambda spec, path, b, s: run_suite("localbase", spec, b, s,
                                               path)),
    # exact: --seed and --budget change nothing, and records carry seed 0
    Command("audit", "Finest-topology audit of candidate open generators.",
            None, "required", lambda _, path, b, s: run_audit(path)),
    Command("morphism",
            "Order-morphism laws and transport checks for a shipped map.",
            "NAME", None, lambda name, _, b, s: run_morphism(name, b, s)),
    Command("all", "Every applicable suite on INSTANCE.", "INSTANCE", None,
            lambda spec, _, b, s: run_all(spec, b, s)),
)


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--budget", type=int, default=200,
                        help="Total sampling budget per check, at least 1 "
                             "(default: 200).")
    common.add_argument("--seed", type=int, default=None,
                        help="Root seed (default: EVS_LAB_SEED or "
                             f"{DEFAULT_SEED}).")
    common.add_argument("--format", choices=("text", "jsonlines"),
                        default="text", help="(default: text)")
    common.add_argument("--findings-ok", action="store_true",
                        help="Exit 0 when only finding-suites report "
                             "Refuted.")
    parser = argparse.ArgumentParser(
        prog="evs-lab", allow_abbrev=False,
        description="Verification laboratory for ordered exponential "
                    "vector spaces.")
    subs = parser.add_subparsers(title="commands", metavar="COMMAND",
                                 required=True)
    for c in COMMANDS:
        sub = subs.add_parser(c.name, parents=[common], allow_abbrev=False,
                              help=c.help, description=c.help)
        sub.set_defaults(command=c, parser=sub, arg=None, input=None)
        if c.positional:
            sub.add_argument("arg", metavar=c.positional)
        if c.input:
            sub.add_argument("--input", metavar="FILE",
                             required=c.input == "required",
                             help="File with one set expression per line.")
    return parser


def main(args: Optional[List[str]] = None):
    """Run one subcommand and exit: 0, 1 on a Refuted law (or a finding
    without --findings-ok), 2 on a usage error."""
    opts = _parser().parse_args(args)
    try:
        if opts.budget < 1:
            raise UsageError(f"--budget must be at least 1, not {opts.budget}")
        records = opts.command.run(opts.arg, opts.input, opts.budget,
                                   _resolve_seed(opts.seed))
    except UsageError as exc:
        opts.parser.error(str(exc))
    sys.exit(_emit(records, opts.format, opts.findings_ok))


# the call shape of the former click entry point, which perfbench's traced
# round still uses; it can go with the next benchmark change
main.main = lambda args, prog_name, standalone_mode: main(args)


if __name__ == "__main__":
    main()
