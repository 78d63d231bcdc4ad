"""Command-line driver: run verification suites and emit deterministic
reports.

Every record carries the check id, instance, verdict, rendered witness,
sample count and seed; jsonlines output is byte-stable across runs for a
fixed seed except for the elapsed field.  Law suites fail the process on
any Refuted verdict; the audit and local-base suites report Refuted
verdicts as findings, which keep exit status 0 under --findings-ok.
"""

import json
import os
import sys
import time
from dataclasses import dataclass
from typing import List, Optional

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


def _timed(check_id, instance, suite, thunk) -> ReportRecord:
    t0 = time.perf_counter()
    outcome = thunk()
    return ReportRecord(check_id, instance, suite, outcome,
                        time.perf_counter() - t0)


def _suite(prefix, instance, suite, driver, *args) -> List[ReportRecord]:
    """One record per entry of the dict ``driver(*args)``, its check id
    the entry's key after ``prefix``; the driver's measured time is
    shared evenly among its records."""
    t0 = time.perf_counter()
    verdicts = driver(*args)
    share = (time.perf_counter() - t0) / max(1, len(verdicts))
    return [ReportRecord(prefix + key, instance, suite, outcome, share)
            for key, outcome in verdicts.items()]


# ------------------------------------------------------------ suite runners

def _instance(spec: str):
    try:
        return make_instance(spec)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def run_axioms(spec: str, budget: int, seed: int) -> List[ReportRecord]:
    E = _instance(spec)
    return _suite("axioms.", E.name, "axioms", core.check_axioms,
                  E, budget, seed)


def run_sets(spec: str, budget: int, seed: int,
             input_path: Optional[str]) -> List[ReportRecord]:
    E = _instance(spec)
    recs: List[ReportRecord] = []
    if setlaws.has_interval_sets(E):
        for driver in (setlaws.check_absorbing_closure_laws,
                       setlaws.check_balanced_closure_laws):
            recs += _suite("sets.", E.name, "sets", driver, E, budget, seed)
    for i, A in enumerate(_load_sets(input_path, E.element_kind,
                                     nonempty=True)):
        recs.append(_timed(
            f"sets.input{i}.balanced", E.name, "sets",
            lambda A=A: st.is_balanced(A)))
        recs.append(_timed(
            f"sets.input{i}.absorbing", E.name, "sets",
            lambda A=A: st.is_absorbing(A)))
    if not recs:
        raise click.UsageError(
            f"instance {spec!r} has no exact interval support and no "
            f"--input sets were given")
    return recs


def run_radial(spec: str, budget: int, seed: int) -> List[ReportRecord]:
    E = _instance(spec)
    return [_timed("radial", E.name, "radial",
                   lambda: setlaws.check_radial(E, budget, seed))]


def run_bounded(spec: str, budget: int, seed: int,
                input_path: Optional[str]) -> List[ReportRecord]:
    E = _instance(spec)
    recs: List[ReportRecord] = []
    if setlaws.has_interval_sets(E):
        # the law ids already start with "bounded."
        recs += _suite("", E.name, "bounded", topology.check_bounded_laws,
                       E, budget, seed)
    inputs = _load_sets(input_path, E.element_kind, nonempty=True)
    for A in inputs:
        if not hasattr(A, "bounded"):
            raise click.UsageError(
                f"no boundedness decider for {type(A).__name__} sets "
                f"on {E.name}")
    for i, A in enumerate(inputs):
        recs.append(_timed(
            f"bounded.input{i}", E.name, "bounded",
            lambda A=A: topology.is_bounded_set(
                A, subseed(seed, f"in{i}:bnd"))))
    if not recs:
        raise click.UsageError(
            f"instance {spec!r} needs interval support or --input sets")
    return recs


def run_localbase(spec: str, budget: int, seed: int,
                  input_path: Optional[str]) -> List[ReportRecord]:
    E = _instance(spec)
    if not setlaws.has_interval_sets(E):
        raise click.UsageError(
            "the local-base suite runs on interval-exact instances")
    if input_path:
        family = list(_load_sets(input_path, E.element_kind))
    else:
        family = list(topology.usual_base(8))
    try:
        return _suite("localbase.", E.name, "localbase",
                      topology.check_local_base_conditions,
                      family, budget, seed)
    except ValueError as exc:  # a family member without theta, or none
        raise click.UsageError(str(exc))


def run_audit(input_path: str) -> List[ReportRecord]:
    gens = list(_load_sets(input_path, "halfline"))
    if not gens:
        raise click.UsageError("audit needs at least one generator")
    recs = [_timed(f"audit.gen{i}", "halfline", "audit",
                   lambda G=G: topology.audit_generator(G))
            for i, G in enumerate(gens)]
    recs.append(_timed("audit.family", "halfline", "audit",
                       lambda: topology.finest_topology_audit(
                           gens, [r.outcome for r in recs])))
    return recs


def run_morphism(name: str, budget: int, seed: int) -> List[ReportRecord]:
    if name not in MORPHISMS:
        raise click.UsageError(
            f"unknown morphism {name!r}; shipped: "
            + ", ".join(sorted(MORPHISMS)))
    phi = MORPHISMS[name]()
    tag = f"{phi.domain.name}->{phi.codomain.name}"
    recs = [_timed(
        f"morphism.{name}.laws", tag, "morphism",
        lambda: core.check_order_morphism(
            phi.forward, phi.domain, phi.codomain, budget, seed))]
    if phi.inverse is not None:
        recs.append(_timed(
            f"morphism.{name}.transport.absorbing", tag, "morphism",
            lambda: setlaws.check_absorbing_transport(phi, budget, seed)))
        recs.append(_timed(
            f"morphism.{name}.transport.radial", tag, "morphism",
            lambda: setlaws.check_radial_transport(phi, budget, seed)))
    return recs


def run_all(spec: str, budget: int, seed: int) -> List[ReportRecord]:
    E = _instance(spec)
    recs = run_axioms(spec, budget, seed)
    recs.append(_timed(
        "structure.primitive-scaling", E.name, "axioms",
        lambda: core.check_primitive_scaling(E, budget, seed)))
    if setlaws.has_interval_sets(E):
        recs += run_sets(spec, budget, seed, None)
        recs += run_bounded(spec, budget, seed, None)
        recs += run_localbase(spec, budget, seed, None)
    recs += run_radial(spec, budget, seed)
    return recs


def _load_sets(input_path: Optional[str], kind: str,
               nonempty: bool = False):
    if input_path is None:
        return []
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
    _finish(run_axioms(instance, budget, _resolve_seed(seed)),
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
    _finish(run_radial(instance, budget, _resolve_seed(seed)),
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
    _finish(run_localbase(instance, budget, _resolve_seed(seed), input_path),
            fmt, findings_ok)


@main.command()
@click.option("--input", "input_path", type=click.Path(), required=True,
              help="Generator file, one set expression per line.")
@_common
def audit(input_path, budget, seed, fmt, findings_ok):
    """Finest-topology audit of candidate open generators."""
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
