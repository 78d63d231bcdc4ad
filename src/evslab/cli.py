"""Command-line driver: run verification suites and emit deterministic
reports.

Every record carries the check id, instance, verdict, rendered witness,
sample count and seed; jsonlines output is byte-stable across runs for a
fixed seed except for the elapsed field.  Law suites fail the process on
any Refuted verdict; the audit and local-base suites report Refuted
verdicts as findings, which keep exit status 0 under --findings-ok.
The instance suites and ``all`` run the rows of one table, ``CHECKS``.
"""

import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional

import click

from . import core, setexpr, setlaws, topology
from . import sets as st
from .instances import MORPHISMS, make_instance
from .outcome import CheckOutcome, subseed

DEFAULT_SEED = 42
FINDING_SUITES = frozenset({"radial", "localbase", "audit"})


@dataclass
class ReportRecord:
    check_id: str
    instance: str
    suite: str
    outcome: CheckOutcome
    elapsed: float

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
        return json.dumps(d, sort_keys=True)

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
    try:
        return topology.check_local_base_conditions(
            topology.usual_base(8) if family is None else family,
            budget, seed)
    except ValueError as exc:  # a family member without theta, or none
        raise click.UsageError(str(exc))


def _bounded_input(E, A, i, seed):
    if not hasattr(A, "bounded"):
        raise click.UsageError(
            f"no boundedness decider for {type(A).__name__} sets "
            f"on {E.name}")
    return topology.is_bounded_set(A, subseed(seed, f"in{i}:bnd"))


# rows in report order; drivers are looked up on each call, so a patched
# or traced library function is the one that runs
CHECKS = (
    Check("axioms", "axioms.",
          lambda E, b, s, _: core.check_axioms(E, b, s)),
    Check("axioms", "structure.primitive-scaling",
          lambda E, b, s, _: core.check_primitive_scaling(E, b, s)),
    Check("sets", "sets.",
          lambda E, b, s, _: setlaws.check_absorbing_closure_laws(E, b, s),
          setlaws.has_interval_sets),
    Check("sets", "sets.",
          lambda E, b, s, _: setlaws.check_balanced_closure_laws(E, b, s),
          setlaws.has_interval_sets),
    Check("sets", "sets.input{i}.balanced",
          lambda E, A, i, s: st.is_balanced(A)),
    Check("sets", "sets.input{i}.absorbing",
          lambda E, A, i, s: st.is_absorbing(A)),
    # the law ids already start with "bounded."
    Check("bounded", "",
          lambda E, b, s, _: topology.check_bounded_laws(E, b, s),
          setlaws.has_interval_sets),
    Check("bounded", "bounded.input{i}", _bounded_input),
    Check("localbase", "localbase.", _local_base, setlaws.has_interval_sets),
    Check("radial", "radial",
          lambda E, b, s, _: setlaws.check_radial(E, b, s)),
)


# ------------------------------------------------------------ suite runners

def run_suite(suite: str, spec: str, budget: int, seed: int,
              input_path: Optional[str] = None) -> List[ReportRecord]:
    """The records of the ``CHECKS`` rows of ``suite`` that apply to the
    instance, or of every row for ``all``: each law row in table order,
    then the ``{i}`` rows on each --input set in turn.  The
    ``structure.*`` rows run only under ``all``."""
    try:
        E = make_instance(spec)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    rows = [r for r in CHECKS if r.applies(E) and (suite == "all" or (
        r.suite == suite and not r.check_id.startswith("structure.")))]
    each = [r for r in rows if "{i}" in r.check_id]
    inputs = _load_sets(input_path, E.element_kind,
                        nonempty=bool(each)) if rows else None
    recs: List[ReportRecord] = []
    for r in rows:
        if "{i}" not in r.check_id:
            recs += _timed(r.check_id, E.name, r.suite,
                           lambda: r.driver(E, budget, seed, inputs))
    for i, A in enumerate(inputs or ()):
        for r in each:
            recs += _timed(r.check_id.format(i=i), E.name, r.suite,
                           lambda: r.driver(E, A, i, seed))
    if not recs:
        raise click.UsageError(
            f"no {suite} check applies to instance {spec!r}")
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
        raise click.UsageError("audit needs at least one generator")
    recs: List[ReportRecord] = []
    for i, G in enumerate(gens):
        recs += _timed(f"audit.gen{i}", "halfline", "audit",
                       lambda: topology.audit_generator(G))
    recs += _timed("audit.family", "halfline", "audit",
                   lambda: topology.finest_topology_audit(
                       gens, [r.outcome for r in recs]))
    return recs


def run_morphism(name: str, budget: int, seed: int) -> List[ReportRecord]:
    if name not in MORPHISMS:
        raise click.UsageError(
            f"unknown morphism {name!r}; shipped: "
            + ", ".join(sorted(MORPHISMS)))
    phi = MORPHISMS[name]()
    tag = f"{phi.domain.name}->{phi.codomain.name}"
    recs = _timed(
        f"morphism.{name}.laws", tag, "morphism",
        lambda: core.check_order_morphism(
            phi.forward, phi.domain, phi.codomain, budget, seed))
    if phi.inverse is not None:
        recs += _timed(
            f"morphism.{name}.transport.absorbing", tag, "morphism",
            lambda: setlaws.check_absorbing_transport(phi, budget, seed))
        recs += _timed(
            f"morphism.{name}.transport.radial", tag, "morphism",
            lambda: setlaws.check_radial_transport(phi, budget, seed))
    return recs


def _load_sets(input_path: Optional[str], kind: str,
               nonempty: bool = False):
    if input_path is None:
        return None
    try:
        with open(input_path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
    except OSError as exc:
        raise click.UsageError(f"cannot read {input_path}: {exc}")
    out = []
    for lineno, ln in enumerate(lines, start=1):
        if not ln or ln.startswith("#"):
            continue
        try:
            A = setexpr.parse_set_expression(ln, kind)
        except ValueError as exc:
            raise click.UsageError(f"{input_path}:{lineno}: {exc}")
        if nonempty and A.is_empty():
            raise click.UsageError(f"{input_path}:{lineno}: set is empty")
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
    # one write: click flushes after every echo
    if lines:
        click.echo("\n".join(lines))
    if failures:
        return 1
    if findings and not findings_ok:
        return 1
    return 0


def _common(fn):
    fn = click.option("--budget", type=click.IntRange(min=1), default=200,
                      show_default=True,
                      help="Total sampling budget per check.")(fn)
    fn = click.option("--seed", type=int, default=None,
                      help="Root seed (default: EVS_LAB_SEED or "
                           f"{DEFAULT_SEED}).")(fn)
    fn = click.option("--format", "fmt",
                      type=click.Choice(["text", "jsonlines"]),
                      default="text", show_default=True)(fn)
    fn = click.option("--findings-ok", is_flag=True,
                      help="Exit 0 when only finding-suites report "
                           "Refuted.")(fn)
    return fn


def _resolve_seed(seed: Optional[int]) -> int:
    if seed is not None:
        return seed
    env = os.environ.get("EVS_LAB_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise click.UsageError(
            f"EVS_LAB_SEED must be an integer, not {env!r}")


@click.group()
def main():
    """Verification laboratory for ordered exponential vector spaces."""


def _finish(records, fmt, findings_ok):
    sys.exit(_emit(records, fmt, findings_ok))


@main.command()
@click.argument("instance")
@_common
def axioms(instance, budget, seed, fmt, findings_ok):
    """Run the axiom suite on INSTANCE."""
    _finish(run_suite("axioms", instance, budget, _resolve_seed(seed)),
            fmt, findings_ok)


@main.command()
@click.argument("instance")
@click.option("--input", "input_path", type=click.Path(), default=None,
              help="File with one set expression per line.")
@_common
def sets(instance, input_path, budget, seed, fmt, findings_ok):
    """Closure laws and per-set deciders on INSTANCE."""
    _finish(run_sets(instance, budget, _resolve_seed(seed), input_path),
            fmt, findings_ok)


@main.command()
@click.argument("instance")
@_common
def radial(instance, budget, seed, fmt, findings_ok):
    """Per-pair separation check on INSTANCE."""
    _finish(run_suite("radial", instance, budget, _resolve_seed(seed)),
            fmt, findings_ok)


@main.command()
@click.argument("instance")
@click.option("--input", "input_path", type=click.Path(), default=None,
              help="File with one set expression per line.")
@_common
def bounded(instance, input_path, budget, seed, fmt, findings_ok):
    """Boundedness laws and per-set verdicts on INSTANCE."""
    _finish(run_bounded(instance, budget, _resolve_seed(seed), input_path),
            fmt, findings_ok)


@main.command()
@click.argument("instance")
@click.option("--input", "input_path", type=click.Path(), default=None,
              help="Family file, one set expression per line.")
@_common
def localbase(instance, input_path, budget, seed, fmt, findings_ok):
    """Local-base conditions for a candidate family at theta."""
    _finish(run_suite("localbase", instance, budget, _resolve_seed(seed),
                      input_path), fmt, findings_ok)


@main.command()
@click.option("--input", "input_path", type=click.Path(), required=True,
              help="Generator file, one set expression per line.")
@_common
def audit(input_path, budget, seed, fmt, findings_ok):
    """Finest-topology audit of candidate open generators."""
    _resolve_seed(seed)  # a bad EVS_LAB_SEED is a usage error here too
    _finish(run_audit(input_path), fmt, findings_ok)


@main.command()
@click.argument("name")
@_common
def morphism(name, budget, seed, fmt, findings_ok):
    """Order-morphism laws and transport checks for a shipped map."""
    _finish(run_morphism(name, budget, _resolve_seed(seed)),
            fmt, findings_ok)


@main.command(name="all")
@click.argument("instance")
@_common
def all_cmd(instance, budget, seed, fmt, findings_ok):
    """Every applicable suite on INSTANCE."""
    _finish(run_all(instance, budget, _resolve_seed(seed)),
            fmt, findings_ok)


if __name__ == "__main__":
    main()
