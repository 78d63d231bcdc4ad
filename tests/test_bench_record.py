import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_record = _load("bench_record", _ROOT / "tools" / "bench_record.py")
perfbench_common = _load("perfbench_common",
                         _ROOT / "perfbench" / "common.py")


def _git(repo, *args) -> str:
    return subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=t",
         "-c", "user.email=t@example.invalid", *args],
        check=True, capture_output=True, text=True).stdout.strip()


def _perfbench_digest(repo, monkeypatch) -> str:
    """The digest perfbench records when run in the checkout ``repo``."""
    monkeypatch.setattr(perfbench_common, "SRC", str(repo / "src"))
    return perfbench_common._source_digest()


@pytest.fixture
def commits(tmp_path, monkeypatch):
    """A git repository with two commits of a small ``src/evslab``, made
    the collector's repository; maps "c0" and "c1" to each commit's
    (sha, digest)."""
    root = tmp_path / "repo"
    monkeypatch.setattr(bench_record, "REPO", str(root))
    pkg = root / "src" / "evslab"
    pkg.mkdir(parents=True)
    _git(root, "init", "-q")
    (pkg / "b.py").write_text("B = 1\n")
    (pkg / "notes.txt").write_text("not source\n")
    commits = {}
    for tag, body in (("c0", "A = 0\n"), ("c1", "A = 1\n")):
        (pkg / "a.py").write_text(body)
        _git(root, "add", "-A")
        _git(root, "commit", "-q", "-m", tag)
        commits[tag] = (_git(root, "rev-parse", "HEAD"),
                        _perfbench_digest(root, monkeypatch))
    return commits


def _record(tmp_path, name, workload, seed, wall, ident, failed=0):
    commit, digest = ident
    env = {"workload": workload, "seed": seed, "trace": 0, "seconds": 30,
           "budget": 1000, "backend": "pure", "python": "3.11.7",
           "commit": commit, "source_sha256": digest, "nproc": 2}
    rec = {"environment": env, "attempted": 10, "failed": failed,
           "metrics": {"wall_s": {"value": wall, "unit": "s"}}}
    path = tmp_path / name
    path.write_text(json.dumps(rec))
    return str(path)


def test_sides_group_runs_and_keep_each_other(tmp_path, commits,
                                              monkeypatch):
    monkeypatch.setattr(bench_record, "calibration_loop", lambda: 0)
    out = tmp_path / "BENCH.json"
    runs = [_record(tmp_path, f"r{k}.json", "laws", 7, w, commits["c0"])
            for k, w in enumerate([2.0, 1.0, 4.0, 3.0, 5.0])]
    runs.append(_record(tmp_path, "a.json", "axioms", 13, 0.5, commits["c0"],
                        failed=1))
    assert bench_record.main(["--out", str(out), "--side", "parent",
                              "--tier1-s", "60", *runs]) == 0
    other = _record(tmp_path, "c.json", "laws", 7, 1.5, commits["c1"])
    assert bench_record.main(["--out", str(out), "--side", "change",
                              other]) == 0
    doc = json.loads(out.read_text())
    parent, change = doc["sides"]["parent"], doc["sides"]["change"]
    assert (parent["commit"], parent["tier1_wall_s"]) == \
        (commits["c0"][0], 60.0)
    axioms, laws = parent["groups"]
    assert (axioms["workload"], axioms["failed"], axioms["runs"]) == \
        ("axioms", 1, 1)
    wall = laws["metrics"]["wall_s"]
    assert wall["values"] == [2.0, 1.0, 4.0, 3.0, 5.0]
    assert (wall["q1"], wall["median"], wall["q3"], wall["unit"]) == \
        (2.0, 3.0, 4.0, "s")
    assert change["commit"] == commits["c1"][0]
    assert "tier1_wall_s" not in change
    assert parent["calibration"]["median"] >= 0
    assert change["calibration"]["median"] >= 0


def test_calibration_is_the_quartiles_of_a_pinned_loop(tmp_path, commits,
                                                       monkeypatch):
    # the loop's work is pinned: an edit to it changes the checksum
    assert bench_record.calibration_loop() == 41007871
    # seven runs of 5, 1, 3, 2, 9, 4 and 7 s on a fake clock
    ticks = iter([0, 5, 10, 11, 20, 23, 30, 32, 40, 49, 50, 54, 60, 67])
    monkeypatch.setattr(bench_record, "perf_counter", lambda: next(ticks))
    monkeypatch.setattr(bench_record, "calibration_loop", lambda: 0)
    out = tmp_path / "BENCH.json"
    run = _record(tmp_path, "a.json", "laws", 7, 1.0, commits["c0"])
    assert bench_record.main(["--out", str(out), "--side", "x", run]) == 0
    assert json.loads(out.read_text())["sides"]["x"]["calibration"] == {
        "unit": "s", "values": [5, 1, 3, 2, 9, 4, 7], "q1": 2.5,
        "median": 4, "q3": 6}


def test_repeated_tier1_times_are_kept_with_their_quartiles(tmp_path,
                                                            commits,
                                                            monkeypatch):
    monkeypatch.setattr(bench_record, "calibration_loop", lambda: 0)
    out = tmp_path / "BENCH.json"
    run = _record(tmp_path, "a.json", "laws", 7, 1.0, commits["c0"])
    times = ["41.4", "37.8", "40.9", "46.3"]
    assert bench_record.main(["--out", str(out), "--side", "x",
                              *(a for t in times for a in ("--tier1-s", t)),
                              run]) == 0
    side = json.loads(out.read_text())["sides"]["x"]
    assert side["tier1"] == {"unit": "s", "values": [41.4, 37.8, 40.9, 46.3],
                             "q1": 40.125, "median": 41.15, "q3": 42.625}
    assert side["tier1_wall_s"] == 41.15


def test_records_of_two_commits_are_not_one_side(tmp_path, commits, capsys):
    runs = [_record(tmp_path, "a.json", "laws", 7, 1.0, commits["c0"]),
            _record(tmp_path, "b.json", "laws", 7, 1.0, commits["c1"])]
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--out", str(out), "--side", "x", *runs]) == 2
    assert "differs" in capsys.readouterr().err
    assert not out.exists()


def test_digest_of_another_tree_is_refused(tmp_path, commits, capsys):
    # a run on an uncommitted tree records HEAD with the tree's digest
    dirty = (commits["c0"][0], commits["c1"][1])
    out = tmp_path / "BENCH.json"
    for ident in (dirty, ("unavailable", commits["c0"][1])):
        run = _record(tmp_path, "a.json", "laws", 7, 1.0, ident)
        assert bench_record.main(["--out", str(out), "--side", "x", run]) == 2
    err = capsys.readouterr().err
    assert f"is not the digest {commits['c0'][1]}" in err
    assert "unavailable" in err
    assert not out.exists()


def test_committed_digest_is_the_perfbench_digest(commits):
    assert commits["c0"][1] != commits["c1"][1]
    for sha, digest in commits.values():
        assert bench_record.committed_source_digest(sha) == digest
