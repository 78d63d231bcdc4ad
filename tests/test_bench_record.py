import importlib.util
import json
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _record(tmp_path, name, workload, seed, wall, commit="c0", failed=0):
    env = {"workload": workload, "seed": seed, "trace": 0, "seconds": 30,
           "budget": 1000, "backend": "pure", "python": "3.11.7",
           "commit": commit, "source_sha256": "d0", "nproc": 2}
    rec = {"environment": env, "attempted": 10, "failed": failed,
           "metrics": {"wall_s": {"value": wall, "unit": "s"}}}
    path = tmp_path / name
    path.write_text(json.dumps(rec))
    return str(path)


def test_sides_group_runs_and_keep_each_other(tmp_path):
    out = tmp_path / "BENCH.json"
    runs = [_record(tmp_path, f"r{k}.json", "laws", 7, w)
            for k, w in enumerate([2.0, 1.0, 4.0, 3.0, 5.0])]
    runs.append(_record(tmp_path, "a.json", "axioms", 13, 0.5, failed=1))
    assert bench_record.main(["--out", str(out), "--side", "parent",
                              "--tier1-s", "60", *runs]) == 0
    other = _record(tmp_path, "c.json", "laws", 7, 1.5, commit="c1")
    assert bench_record.main(["--out", str(out), "--side", "change",
                              other]) == 0
    doc = json.loads(out.read_text())
    parent, change = doc["sides"]["parent"], doc["sides"]["change"]
    assert (parent["commit"], parent["tier1_wall_s"]) == ("c0", 60.0)
    axioms, laws = parent["groups"]
    assert (axioms["workload"], axioms["failed"], axioms["runs"]) == \
        ("axioms", 1, 1)
    wall = laws["metrics"]["wall_s"]
    assert wall["values"] == [2.0, 1.0, 4.0, 3.0, 5.0]
    assert (wall["q1"], wall["median"], wall["q3"], wall["unit"]) == \
        (2.0, 3.0, 4.0, "s")
    assert change["commit"] == "c1" and "tier1_wall_s" not in change


def test_records_of_two_commits_are_not_one_side(tmp_path, capsys):
    runs = [_record(tmp_path, "a.json", "laws", 7, 1.0),
            _record(tmp_path, "b.json", "laws", 7, 1.0, commit="c1")]
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--out", str(out), "--side", "x", *runs]) == 2
    assert "differs" in capsys.readouterr().err
    assert not out.exists()
