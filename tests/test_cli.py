import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from cli_runner import CliRunner

from evslab import cli as cli_module
from evslab import sets as st
from evslab import topology
from evslab.cli import main
from evslab.instances import PLANTED_FAULTS, make_instance


@pytest.fixture
def runner():
    return CliRunner()


def _strip_elapsed(output):
    recs = [json.loads(ln) for ln in output.strip().splitlines()]
    for r in recs:
        r.pop("elapsed", None)
    return recs


def test_axioms_exit_zero_and_text_summary(runner):
    res = runner.invoke(main, ["axioms", "halfline", "--budget", "100"])
    assert res.exit_code == 0
    assert "failures" in res.output
    assert "Proven" in res.output


def test_jsonlines_deterministic_modulo_elapsed(runner):
    args = ["all", "halfline", "--budget", "100", "--seed", "7",
            "--format", "jsonlines", "--findings-ok"]
    a = runner.invoke(main, args)
    b = runner.invoke(main, args)
    assert a.exit_code == 0 and b.exit_code == 0
    assert _strip_elapsed(a.output) == _strip_elapsed(b.output)


def test_record_shape(runner):
    res = runner.invoke(main, ["axioms", "halfline", "--budget", "50",
                               "--format", "jsonlines"])
    recs = _strip_elapsed(res.output)
    assert len(recs) == 13
    for r in recs:
        assert {"checkId", "instance", "suite", "verdict", "samplesTried",
                "seed"} <= set(r)
        assert r["suite"] == "axioms"


def test_elapsed_accounts_for_the_run(runner):
    # every record carries measured time: a law driver's rows share its
    # time, so the records of `all` sum to nearly the whole call (the best
    # of three calls, so one pause outside the drivers cannot decide it)
    args = ["all", "halfline", "--budget", "200", "--seed", "7",
            "--format", "jsonlines", "--findings-ok"]
    coverage = []
    for _ in range(3):
        t0 = time.perf_counter()
        res = runner.invoke(main, args)
        wall = time.perf_counter() - t0
        assert res.exit_code == 0, res.output
        elapsed = [json.loads(ln)["elapsed"]
                   for ln in res.output.splitlines()]
        assert len(elapsed) == 36 and 0.0 not in elapsed
        coverage.append(sum(elapsed) / wall)
    assert max(coverage) >= 0.8, coverage


def test_witnesses_hide_raw_keys(runner):
    res = runner.invoke(main, ["radial", "lattice2", "--budget", "50",
                               "--format", "jsonlines", "--findings-ok"])
    assert res.exit_code == 0
    recs = _strip_elapsed(res.output)
    assert recs[0]["verdict"] == "Refuted"
    assert not any(k.startswith("_") for k in recs[0]["witness"])


def test_finding_suite_exit_codes(runner):
    # radial on the lattice is Refuted: a finding, fatal without the flag
    assert runner.invoke(main, ["radial", "lattice2"]).exit_code == 1
    assert runner.invoke(main, ["radial", "lattice2",
                                "--findings-ok"]).exit_code == 0
    # law-suite refutations stay fatal even with the flag
    res = runner.invoke(main, ["morphism", "square", "--findings-ok"])
    assert res.exit_code == 1


def test_localbase_findings(runner):
    res = runner.invoke(main, ["localbase", "halfline", "--findings-ok",
                               "--format", "jsonlines"])
    assert res.exit_code == 0
    verdicts = {r["checkId"]: r["verdict"] for r in _strip_elapsed(res.output)}
    assert verdicts["localbase.v"] == "Refuted"
    assert verdicts["localbase.i"] == "Proven"


def test_seed_env_variable(runner):
    args = ["axioms", "halfline", "--budget", "50", "--format", "jsonlines"]
    a = runner.invoke(main, args, env={"EVS_LAB_SEED": "123"})
    b = runner.invoke(main, args + ["--seed", "123"])
    assert _strip_elapsed(a.output) == _strip_elapsed(b.output)
    assert all(r["seed"] != 42 or r["samplesTried"] == 0
               for r in _strip_elapsed(a.output)[:1])


@pytest.mark.parametrize("command", [
    "all", "axioms", "sets", "radial", "bounded", "localbase", "audit",
    "morphism"])
def test_bad_seed_env_variable_is_a_usage_error(runner, tmp_path, command):
    f = tmp_path / "sets.txt"
    f.write_text("[0,1)\n")
    args = {"audit": ["--input", str(f)],
            "morphism": ["doubling"]}.get(command, ["halfline"])
    res = runner.invoke(main, [command] + args, env={"EVS_LAB_SEED": "abc"})
    assert res.exit_code == 2
    assert "EVS_LAB_SEED" in res.output
    assert not isinstance(res.exception, ValueError)


def test_sets_with_input_file(runner, tmp_path):
    f = tmp_path / "sets.txt"
    f.write_text("# a comment\n[0,1)\n\n[1,2)\n")
    res = runner.invoke(main, ["sets", "halfline", "--input", str(f),
                               "--format", "jsonlines"])
    recs = {r["checkId"]: r for r in _strip_elapsed(res.output)}
    assert recs["sets.input0.absorbing"]["verdict"] == "Proven"
    assert recs["sets.input1.balanced"]["verdict"] == "Refuted"
    assert res.exit_code == 1  # the refuted per-set decision is fatal


def test_input_file_error_reports_line(runner, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("[0,1)\n[oops\n")
    res = runner.invoke(main, ["sets", "halfline", "--input", str(f)])
    assert res.exit_code == 2
    assert "bad.txt:2" in res.output


def test_an_input_line_loses_only_ascii_whitespace(runner, tmp_path):
    f = tmp_path / "sets.txt"
    f.write_text(" [0,1)\t\n\u00a0[0,2)\n", encoding="utf-8")
    res = runner.invoke(main, ["sets", "halfline", "--input", str(f)])
    assert res.exit_code == 2
    assert "sets.txt:2: expected '[' or '(' starting a piece " \
        "(at offset 0)" in res.output


@pytest.mark.parametrize("command,kind,good,empty", [
    ("sets", "halfline", "[0,1)", "[2,1)"),
    ("bounded", "halfline", "[0,1)", "[2,1)"),
    ("sets", "lattice2", "{zero}", "{}"),
])
def test_empty_input_set_is_a_usage_error(runner, tmp_path, command, kind,
                                          good, empty):
    f = tmp_path / "sets.txt"
    f.write_text(f"# comment\n{good}\n{empty}\n")
    res = runner.invoke(main, [command, kind, "--input", str(f)])
    assert res.exit_code == 2, res.output
    assert "sets.txt:3: set is empty" in res.output
    assert not isinstance(res.exception, ValueError)


@pytest.mark.parametrize("command", [
    ["sets", "halfline"], ["bounded", "halfline"], ["audit"],
    ["localbase", "halfline"],
])
def test_zero_denominator_in_input_is_a_usage_error(runner, tmp_path,
                                                    command):
    f = tmp_path / "sets.txt"
    f.write_text("[0,1)\n[1/0,2)\n")
    res = runner.invoke(main, command + ["--input", str(f)])
    assert res.exit_code == 2, res.output
    assert "sets.txt:2: zero denominator" in res.output
    assert not isinstance(res.exception, ZeroDivisionError)


@pytest.mark.parametrize("command", [
    ["sets", "halfline"], ["bounded", "halfline"], ["audit"],
    ["localbase", "halfline"],
])
def test_non_utf8_input_is_a_usage_error(runner, tmp_path, command):
    f = tmp_path / "sets.txt"
    f.write_bytes(b"\xff\xfe")
    res = runner.invoke(main, command + ["--input", str(f)])
    assert res.exit_code == 2, res.output
    assert f"cannot read {f}" in res.output
    assert not isinstance(res.exception, UnicodeDecodeError)


def test_audit_requires_input_and_reports(runner, tmp_path):
    f = tmp_path / "gens.txt"
    f.write_text("[1,2)\n[0,1]\n")
    res = runner.invoke(main, ["audit", "--input", str(f), "--findings-ok",
                               "--format", "jsonlines"])
    assert res.exit_code == 0
    recs = {r["checkId"]: r for r in _strip_elapsed(res.output)}
    assert recs["audit.gen0"]["witness"]["t"] == "1/2"
    assert recs["audit.gen1"]["witness"]["t"] == "3/2"
    assert recs["audit.family"]["verdict"] == "Refuted"
    res2 = runner.invoke(main, ["audit"])
    assert res2.exit_code == 2


def test_audit_seed_and_budget_change_nothing(runner, tmp_path):
    # the audit is exact; both options exist for a uniform command line
    f = tmp_path / "gens.txt"
    f.write_text("[1,2)\n[0,1]\n")
    out = [runner.invoke(main, ["audit", "--input", str(f), "--seed", seed,
                                "--budget", budget, "--findings-ok",
                                "--format", "jsonlines"])
           for seed, budget in (("5", "1"), ("9", "999"))]
    assert [res.exit_code for res in out] == [0, 0]
    assert _strip_elapsed(out[0].output) == _strip_elapsed(out[1].output)
    assert {r["seed"] for r in _strip_elapsed(out[0].output)} == {0}


AUDIT_TEXT = """\
audit.gen0                   halfline                 Refuted
  - left-closed component away from theta: scaling x by t < 1 lands in the gap below
  - witness: component=[1,2), escape=1/2, t=1/2, x=1
audit.gen1                   halfline                 Refuted
  - right-closed bounded component: scaling the endpoint by t > 1 lands in the gap above
  - witness: component=[0,1], escape=3/2, t=3/2, x=1
audit.gen2                   halfline                 Proven
  - all components have open subspace form
audit.family                 halfline                 Refuted
  - left-closed component away from theta: scaling x by t < 1 lands in the gap below
  - witness: component=[1,2), escape=1/2, generator=[1,2), t=1/2, x=1
-- 4 checks, 0 failures, 3 findings
"""


def test_text_report_bytes(runner, tmp_path):
    f = tmp_path / "gens.txt"
    f.write_text("[1,2)\n[0,1]\n(0,1)\n")
    res = runner.invoke(main, ["audit", "--input", str(f)])
    assert res.exit_code == 1  # findings without --findings-ok
    assert res.output == AUDIT_TEXT


def test_no_records_print_no_blank_line(capsys):
    assert cli_module._emit([], "jsonlines", False) == 0
    assert capsys.readouterr().out == ""
    assert cli_module._emit([], "text", False) == 0
    assert capsys.readouterr().out == "-- 0 checks, 0 failures, 0 findings\n"


def test_audit_runs_each_generator_once(tmp_path, monkeypatch):
    # the family verdict reuses the per-generator outcomes
    rng = random.Random(2024)
    gens = [st.random_interval_union(rng) for _ in range(2000)]
    f = tmp_path / "gens.txt"
    f.write_text("".join(G.render() + "\n" for G in gens))
    calls = []
    audit = topology.audit_generator
    monkeypatch.setattr(topology, "audit_generator",
                        lambda G: calls.append(G) or audit(G))
    recs = cli_module.run_audit(str(f))
    assert len(calls) == 2000  # 4000 when the family audit re-ran them
    assert [r.outcome for r in recs[:-1]] == [audit(G) for G in gens]
    assert recs[-1].check_id == "audit.family"
    assert recs[-1].outcome == topology.finest_topology_audit(
        gens, [audit(G) for G in gens])


def test_morphism_unknown_name(runner):
    res = runner.invoke(main, ["morphism", "nope"])
    assert res.exit_code == 2
    assert "doubling" in res.output


def test_localbase_rejects_unsupported_instance(runner):
    res = runner.invoke(main, ["localbase", "lattice2"])
    assert res.exit_code == 2


@pytest.mark.parametrize("args", [
    ["all", "halfline", "--budget", "0"],
    ["all", "nosuch"],
    ["all", "cone:abc"],
])
def test_bad_input_is_a_usage_error(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    assert not isinstance(res.exception, ValueError)


@pytest.mark.parametrize("spec,form", [
    ("cone:abc", "cone:<n>"),
    ("cone:0", "cone:<n>"),
    ("twisted:x", "twisted:<n>"),
    ("product:()", "product:(<spec>,<spec>,...)"),
    ("product:halfline", "product:(<spec>,<spec>,...)"),
])
def test_bad_spec_message_names_the_spec(runner, spec, form):
    res = runner.invoke(main, ["all", spec])
    assert res.exit_code == 2
    assert f"bad instance spec '{spec}'" in res.output
    assert form in res.output


# the deepest product:(...) nesting a spec may have, as the README states
MAX_PRODUCT_NESTING = 32


def _nested_product(depth):
    return "product:(" * depth + "halfline" + ")" * depth


def test_all_runs_at_the_deepest_product_nesting(runner):
    res = runner.invoke(main, ["all", _nested_product(MAX_PRODUCT_NESTING),
                               "--budget", "20", "--format", "jsonlines"])
    assert res.exit_code in (0, 1), res.output
    records = _strip_elapsed(res.stdout)
    assert records and all(r["verdict"] in ("Proven", "Refuted",
                                            "Unfalsified") for r in records)


@pytest.mark.parametrize("depth", [MAX_PRODUCT_NESTING + 1, 1200])
def test_deeper_product_nesting_is_a_usage_error(runner, depth):
    # 1200 levels used to end in a RecursionError traceback
    res = runner.invoke(main, ["all", _nested_product(depth)])
    assert res.exit_code == 2
    assert f"products nest at most {MAX_PRODUCT_NESTING} levels deep" in \
        res.stderr
    assert "Traceback" not in res.output


GOLDEN_ALL = Path(__file__).resolve().parent / "golden" / "all-b200-s7.jsonl"
SHIPPED_SPECS = ("halfline", "cone:2", "twisted:2", "dict2", "lattice2",
                 "product:(halfline,dict2)")


def test_all_matches_golden_records(runner):
    # `all <spec> --budget 200 --seed 7` on the six shipped instances,
    # record for record and byte for byte once `elapsed` is dropped
    lines = []
    for spec in SHIPPED_SPECS:
        res = runner.invoke(main, ["all", spec, "--budget", "200", "--seed",
                                   "7", "--format", "jsonlines",
                                   "--findings-ok"])
        assert res.exit_code == 0, res.output
        lines += [json.dumps(r, sort_keys=True)
                  for r in _strip_elapsed(res.output)]
    assert lines == GOLDEN_ALL.read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("kind", ["dict2", "lattice2"])
def test_sets_input_matches_golden_records(runner, kind):
    # `sets <kind> --input` on the committed set file: the per-set
    # deciders of the box and subspace-family carriers, byte for byte
    golden = GOLDEN_ALL.parent
    res = runner.invoke(main, ["sets", kind, "--input",
                               str(golden / f"{kind}-sets.txt"),
                               "--budget", "200", "--seed", "7",
                               "--format", "jsonlines", "--findings-ok"])
    assert res.exit_code == 1, res.output  # some per-set Refuted verdicts
    lines = [json.dumps(r, sort_keys=True) for r in _strip_elapsed(res.output)]
    assert lines == (golden / f"sets-{kind}-b200-s7.jsonl").read_text(
        encoding="utf-8").splitlines()


@pytest.mark.parametrize("kind,text,carrier", [
    ("dict2", "[0,1)x[0,2]\n", "AnchoredBoxUnion"),
    ("lattice2", "{zero,full}\n", "LatticeFamily"),
])
def test_bounded_input_without_a_decider_is_a_usage_error(runner, tmp_path,
                                                          kind, text,
                                                          carrier):
    # only the half line's carrier decides boundedness, so no bounded row
    # applies, with or without a file, and no carrier is asked
    f = tmp_path / "sets.txt"
    f.write_text(text)
    for args in (["bounded", kind], ["bounded", kind, "--input", str(f)]):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert res.stderr.endswith(
            f"error: no bounded check applies to instance {kind!r}\n")
        assert carrier not in res.output
        assert not isinstance(res.exception, TypeError)


@pytest.mark.parametrize("family", ["[0,0]\n", "[0,1)\n[0,0] U (1,2)\n"])
def test_localbase_family_with_a_zero_width_member(tmp_path, family):
    # a {0} member has width 0; the (iv) pair grid must still make progress
    f = tmp_path / "family.txt"
    f.write_text(family)
    src = str(Path(cli_module.__file__).resolve().parents[1])
    res = subprocess.run(
        [sys.executable, "-m", "evslab.cli", "localbase", "halfline",
         "--input", str(f), "--budget", "50", "--findings-ok",
         "--format", "jsonlines"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    verdicts = {r["checkId"]: r["verdict"] for r in _strip_elapsed(res.stdout)}
    assert verdicts["localbase.i"] == "Refuted"


@pytest.mark.parametrize("family,message", [
    ("(1,2)\n", "does not contain theta"),
    ("", "family must be non-empty"),
])
def test_localbase_bad_family_is_a_usage_error(runner, tmp_path, family,
                                               message):
    f = tmp_path / "family.txt"
    f.write_text(family)
    res = runner.invoke(main, ["localbase", "halfline", "--input", str(f)])
    assert res.exit_code == 2
    assert message in res.output
    assert not isinstance(res.exception, ValueError)


@pytest.mark.parametrize("fault,expected_id", [
    ("halfline#no-modulus", "A2.scale"),
    ("twisted:2#no-zero-case", "A4"),
    ("lattice2#no-canonicalization", "A1.comm"),
])
def test_planted_fault_is_reachable_by_its_spec(runner, fault, expected_id):
    assert set(PLANTED_FAULTS) == {"halfline#no-modulus",
                                   "twisted:2#no-zero-case",
                                   "lattice2#no-canonicalization"}
    assert make_instance(fault).name == fault
    res = runner.invoke(main, ["axioms", fault, "--budget", "200",
                               "--format", "jsonlines"])
    assert res.exit_code == 1, res.output
    verdicts = {r["checkId"]: r["verdict"] for r in _strip_elapsed(res.output)}
    assert verdicts["axioms." + expected_id] == "Refuted"


NON_INTERVAL_SPECS = ("cone:1", "cone:2", "twisted:2", "dict2", "lattice2",
                      "product:(halfline,dict2)", "twisted:2#no-zero-case",
                      "lattice2#no-canonicalization")


# one message replaced each suite's own, which must not come back
@pytest.mark.parametrize("command,old_message", [
    ("sets", "instance {!r} has no exact interval support and no --input "
             "sets were given"),
    ("bounded", "instance {!r} needs interval support or --input sets"),
    ("localbase", "the local-base suite runs on interval-exact instances"),
])
@pytest.mark.parametrize("spec", NON_INTERVAL_SPECS)
def test_interval_suites_without_input_are_usage_errors_off_the_half_line(
        runner, tmp_path, spec, command, old_message):
    runs = [[command, spec]]
    if command == "localbase":  # the message holds with a family file too
        f = tmp_path / "family.txt"
        f.write_text("[0,1)x[0,2]\n")
        runs.append([command, spec, "--input", str(f)])
    for args in runs:
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert f"no {command} check applies to instance {spec!r}" \
            in res.output
        assert old_message.format(spec) not in res.output


def test_a_driver_error_is_not_a_usage_error(runner, monkeypatch):
    # only the local-base family's ValueError is the user's to fix
    def boom(*args):
        raise ValueError("boom")

    monkeypatch.setattr(topology, "check_bounded_laws", boom)
    res = runner.invoke(main, ["bounded", "halfline"])
    assert res.exit_code != 2
    assert isinstance(res.exception, ValueError)


@pytest.mark.parametrize("spec,hint", [
    ("dict2", True), ("lattice2", True),
    ("cone:2", False),  # no set grammar: no --input file could help
])
def test_a_suite_of_per_set_deciders_asks_for_input(runner, spec, hint):
    # sets runs only its per-set deciders off the half-line, on --input sets
    res = runner.invoke(main, ["sets", spec])
    assert res.exit_code == 2, res.output
    assert f"no sets check applies to instance {spec!r}" in res.stderr
    assert ("without --input" in res.stderr) == hint


@pytest.mark.parametrize("command,spec", [
    ("sets", "dict2"), ("sets", "halfline"), ("bounded", "halfline")])
def test_an_input_file_without_a_set_is_a_usage_error(runner, tmp_path,
                                                      command, spec):
    # as audit refuses a file without a generator; no law runs either
    f = tmp_path / "comments.txt"
    f.write_text("# no set here\n\n")
    res = runner.invoke(main, [command, spec, "--input", str(f)])
    assert res.exit_code == 2, res.output
    assert res.stdout == ""
    assert res.stderr.endswith(f"error: {f} holds no set\n")
