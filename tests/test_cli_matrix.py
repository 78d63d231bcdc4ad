"""Every shipped command's bytes: each line of
``tests/golden/cli-matrix.jsonl`` is rerun in process and must give the
same exit code, stderr, and stdout with ``elapsed`` removed.
``python3 tools/cli_matrix.py --write`` regenerates the file.

``--help`` and a bare ``evs-lab`` are kept out of the matrix on purpose:
help texts belong to the argument parser and may change with it."""

import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import cli_matrix  # noqa: E402

GOLDEN = [json.loads(ln) for ln in pathlib.Path(cli_matrix.GOLDEN)
          .read_text(encoding="utf-8").splitlines()]


def test_the_matrix_holds_every_command():
    assert [(g["argv"], g.get("env")) for g in GOLDEN] == cli_matrix.COMMANDS
    assert not any("--help" in g["argv"] or not g["argv"] for g in GOLDEN)


@pytest.mark.parametrize("expected", GOLDEN, ids=[
    " ".join([*(f"{k}={v}" for k, v in g.get("env", {}).items()), *g["argv"]])
    for g in GOLDEN])
def test_command_output_matches_the_matrix(expected):
    assert cli_matrix.run(expected["argv"], expected.get("env")) == expected


def test_the_tool_names_each_changed_line(tmp_path, monkeypatch, capsys):
    golden = tmp_path / "matrix.jsonl"
    monkeypatch.setattr(cli_matrix, "GOLDEN", str(golden))
    monkeypatch.setattr(cli_matrix, "COMMANDS", [(["axioms"], None),
                                                 (["morphism", "nope"], None)])
    monkeypatch.setattr(sys, "path", list(sys.path))

    def tool(*argv):
        code = cli_matrix.main(list(argv))
        return code, capsys.readouterr().out.splitlines()

    assert tool("--write") == (0, ["['axioms']", "['morphism', 'nope']",
                                   f"wrote 2 commands to {golden}"])
    written = golden.read_text(encoding="utf-8")
    assert tool() == (0, [])
    lines = [json.loads(ln) for ln in written.splitlines()]
    lines[0].update(exit=0, stderr="")
    lines[1]["stdout"] = "changed\n"
    golden.write_text("".join(json.dumps(ln, ensure_ascii=False,
                                         sort_keys=True) + "\n"
                              for ln in lines), encoding="utf-8")
    assert tool() == (1, ["['axioms']: exit, stderr",
                          "['morphism', 'nope']: stdout"])
    golden.write_text(written.replace('"exit": 2', '"exit": 3', 1),
                      encoding="utf-8")
    assert tool("--write") == (0, ["['axioms']",
                                   f"wrote 2 commands to {golden}"])
    assert golden.read_text(encoding="utf-8") == written
    # a command inserted mid-list names only itself, as does its removal
    inserted = ["nosuch", "halfline"]
    two = cli_matrix.COMMANDS
    monkeypatch.setattr(cli_matrix, "COMMANDS",
                        [two[0], (inserted, None), two[1]])
    assert tool() == (1, [f"{inserted}: no golden line"])
    assert tool("--write") == (0, [str(inserted),
                                   f"wrote 3 commands to {golden}"])
    assert tool() == (0, [])
    monkeypatch.setattr(cli_matrix, "COMMANDS", two)
    assert tool() == (1, [f"{inserted}: no command"])
    assert tool("--write") == (0, [str(inserted),
                                   f"wrote 2 commands to {golden}"])
    assert golden.read_text(encoding="utf-8") == written
