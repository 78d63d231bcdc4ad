"""The command matrix: what every shipped ``evs-lab`` command prints.

    python3 tools/cli_matrix.py            # compare with the golden file
    python3 tools/cli_matrix.py --write    # rewrite the golden file

Each line of ``tests/golden/cli-matrix.jsonl`` is one command of
``COMMANDS``, run in process from the repository root: its ``argv``
(without the program name), the ``env`` it adds (only where it adds
any), its ``exit`` code, its ``stderr``, and its ``stdout`` with every
record's ``"elapsed"`` field removed.  ``EVS_LAB_SEED`` is unset unless
``env`` sets it, and ``COLUMNS`` is 80, the width usage messages wrap
at.  The ``--input`` files are under ``tests/golden/cli-input/``.
``--help`` and a bare ``evs-lab`` are not in the matrix, so their texts
may change freely.

A change that alters any of these bytes regenerates the file with
``--write``, which prints the argv of every line it added, changed or
removed, and lists those lines.  Without ``--write`` the tool prints the
argv of every line that differs, with the fields that differ (``exit``,
``stderr``, ``stdout``), of every command that has no golden line and of
every golden line that has no command, and exits 1 if there is any.
Golden lines are matched to commands by ``argv`` and ``env``, so a
command inserted anywhere names only itself.
Standard library only; ``src`` and ``tests`` (for its in-process runner,
``tests/cli_runner.py``) are put on ``sys.path``.
"""

import argparse
import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "cli-matrix.jsonl")
INPUT = "tests/golden/cli-input/"

SPECS = ("halfline", "cone:2", "twisted:2", "dict2", "lattice2",
         "product:(halfline,dict2)", "cone:1", "halfline#no-modulus",
         "twisted:2#no-zero-case", "lattice2#no-canonicalization")
SUITES = ("axioms", "sets", "radial", "bounded", "localbase", "all")
SEEDED = ("--budget", "50", "--seed", "7")
JSON = ("--format", "jsonlines")


def _commands():
    """``(argv, env)`` pairs, in file order."""
    out = [([suite, spec, *SEEDED, *JSON], None)
           for suite in SUITES for spec in SPECS]
    out += [(["all", spec, *SEEDED, "--findings-ok"], None)
            for spec in SPECS]
    out += [(["morphism", name, *SEEDED, *JSON], None)
            for name in ("doubling", "embed", "shift", "square")]
    out += [(argv, None) for argv in (
        # the defaults: text, budget 200, seed 42
        ["axioms", "halfline"],
        ["radial", "lattice2"],
        ["radial", "lattice2", "--findings-ok"],
        ["morphism", "doubling", "--budget", "50"],
        # closure-law corpora larger than PAIR_CAP (40) sets
        ["sets", "halfline", "--budget", "1000", "--seed", "7", *JSON],
        # the --input paths
        ["sets", "halfline", "--input", INPUT + "halfline-sets.txt",
         *SEEDED, *JSON],
        ["bounded", "halfline", "--input", INPUT + "halfline-sets.txt",
         *SEEDED, *JSON],
        ["sets", "dict2", "--input", "tests/golden/dict2-sets.txt",
         *SEEDED],
        ["sets", "lattice2", "--input", "tests/golden/lattice2-sets.txt",
         *SEEDED],
        ["localbase", "halfline", "--input", INPUT + "family.txt",
         *SEEDED, *JSON],
        ["localbase", "halfline", "--input", INPUT + "family.txt",
         *SEEDED, "--findings-ok"],
        ["audit", "--input", INPUT + "generators.txt"],
        ["audit", "--input", INPUT + "generators.txt", "--findings-ok",
         *JSON],
        ["audit", "--input", INPUT + "generators.txt", "--seed", "5",
         "--budget", "1", *JSON],
        # usage errors
        ["all", "nosuch"],
        ["all", "cone:abc"],
        ["all", "cone:1_0"],
        ["all", "product:()"],
        ["all", "product:(halfline,)"],
        ["all", "product:(" * 33 + "halfline" + ")" * 33],
        ["all", "halfline", "--budget", "0"],
        ["all", "halfline", "--budget", "x"],
        ["all", "halfline", "--seed", "x"],
        ["axioms", "halfline", "--bud", "5"],
        ["axioms", "halfline", "--format", "xml"],
        ["axioms", "halfline", "--nosuch"],
        ["axioms"],
        ["axioms", "halfline", "extra"],
        ["morphism"],
        ["morphism", "nope"],
        ["nosuch", "halfline"],
        ["audit"],
        ["audit", "--input", INPUT + "no-sets.txt"],
        ["audit", "halfline", "--input", INPUT + "generators.txt"],
        ["radial", "halfline", "--input", INPUT + "halfline-sets.txt"],
        ["sets", "halfline", "--input", INPUT + "missing.txt"],
        ["sets", "halfline", "--input", INPUT + "non-utf8.txt"],
        ["sets", "halfline", "--input", INPUT + "empty-set.txt"],
        ["bounded", "halfline", "--input", INPUT + "empty-set.txt"],
        ["sets", "halfline", "--input", INPUT + "bad-line.txt"],
        ["sets", "halfline", "--input", INPUT + "non-ascii.txt"],
        ["audit", "--input", INPUT + "zero-denominator.txt"],
        ["sets", "cone:2", "--input", INPUT + "halfline-sets.txt"],
        ["sets", "dict2", "--input", INPUT + "no-sets.txt"],
        ["sets", "halfline", "--input", INPUT + "no-sets.txt"],
        ["bounded", "dict2", "--input", "tests/golden/dict2-sets.txt"],
        ["localbase", "halfline", "--input",
         INPUT + "family-without-theta.txt"],
        ["localbase", "halfline", "--input", INPUT + "no-sets.txt"],
        ["localbase", "dict2", "--input", INPUT + "family.txt"],
    )]
    out += [(["axioms", "halfline", "--budget", "50", *JSON],
             {"EVS_LAB_SEED": "123"})]
    out += [([command, *args], {"EVS_LAB_SEED": "abc"})
            for command, args in (
                ("axioms", ["halfline"]),
                ("audit", ["--input", INPUT + "generators.txt"]),
                ("morphism", ["doubling"]))]
    return out


COMMANDS = _commands()
_ELAPSED = re.compile(r'"elapsed": [-+.\deE]+, ')


def run(argv, env=None) -> dict:
    """One matrix line: ``argv`` run in process from the repository
    root, with ``EVS_LAB_SEED`` unset unless ``env`` sets it and usage
    messages wrapped at 80 columns."""
    from cli_runner import CliRunner
    from evslab import cli

    saved_cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        res = CliRunner().invoke(cli.main, argv, env={
            "EVS_LAB_SEED": None, "COLUMNS": "80", **(env or {})})
    finally:
        os.chdir(saved_cwd)
    line = {"argv": list(argv)}
    if env:
        line["env"] = dict(env)
    line.update(exit=res.exit_code, stderr=res.stderr,
                stdout=_ELAPSED.sub("", res.stdout))
    return line


def _changed(lines, golden) -> list:
    """``(argv, what)`` for each line of ``lines`` that is not the golden
    line of the same ``argv`` and ``env``, then for each golden line that
    no command has: ``what`` names the keys whose values differ, or the
    side that has no line."""
    def command(line):
        return json.dumps([line["argv"], line.get("env")])

    old = {command(g): g for g in map(json.loads, golden)}
    out = []
    for new in map(json.loads, lines):
        was = old.pop(command(new), None)
        if was is None:
            out.append((new["argv"], "no golden line"))
        elif new != was:
            out.append((new["argv"], ", ".join(sorted(
                k for k in new.keys() | was.keys()
                if new.get(k) != was.get(k)))))
    return out + [(g["argv"], "no command") for g in old.values()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true",
                    help="rewrite the golden file instead of comparing")
    opts = ap.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    lines = [json.dumps(run(argv, env), ensure_ascii=False, sort_keys=True)
             for argv, env in COMMANDS]
    golden = []
    if not opts.write or os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = fh.read().splitlines()
    if opts.write:
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            fh.write("".join(ln + "\n" for ln in lines))
        for argv, _ in _changed(lines, golden):
            print(argv)
        print(f"wrote {len(lines)} commands to {GOLDEN}")
        return 0
    differ = _changed(lines, golden)
    for argv, what in differ:
        print(f"{argv}: {what}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
