import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = {"ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s", "peak_rss_mb"}


def test_a_a_pair_schema_and_digests(tmp_path):
    # one pair of the working tree against itself: the schema and equal
    # digests are checked, never the times
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), "--label", "aa",
         "--workload", "measure", "--base", str(ROOT), "--change", str(ROOT),
         "--seeds", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    report = json.loads((tmp_path / "BENCH_aa.json").read_text())
    assert set(report) == {"label", "workload", "seconds", "seeds", "python", "nproc",
                           "pairs", "change_won", "digests_equal", "sides"}
    assert (report["label"], report["workload"], report["seeds"], report["pairs"]) == \
        ("aa", "measure", [1], 1)
    assert report["digests_equal"] is True and set(report["change_won"]) == METRICS
    assert set(report["sides"]) == {"base", "change"}
    for side in report["sides"].values():
        assert set(side) == {"source", "revision", "src_lines", "summary", "runs"}
        assert set(side["summary"]) == METRICS
        assert all(set(s) == {"median", "q1", "q3"} for s in side["summary"].values())
        [run] = side["runs"]
        assert set(run) == {"seed", "digest", "correct", "failed", "metrics", "first"}
        assert (run["seed"], run["correct"], run["failed"]) == (1, True, 0)
        assert set(run["metrics"]) == METRICS
    base, change = (report["sides"][s]["runs"][0] for s in ("base", "change"))
    assert base["digest"] == change["digest"]
    assert (base["first"], change["first"]) == (True, False)


def test_exits_1_when_digests_differ(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    digests = iter(["a", "a", "b", "c"])

    def fake_run(tree, workload, seed, seconds):
        return {"python": "3", "nproc": 1, "src_lines": 1}, {
            "seed": seed, "digest": next(digests), "correct": True, "failed": 0,
            "metrics": dict.fromkeys(METRICS, 1.0)}

    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    monkeypatch.chdir(tmp_path)
    argv = ["--label", "x", "--workload", "measure", "--base", str(ROOT),
            "--change", str(ROOT), "--seeds", "1", "2", "--seconds", "1"]
    assert bench_pairs.main(argv) == 1
    report = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert report["digests_equal"] is False
    # ties count for neither side
    assert report["change_won"] == dict.fromkeys(METRICS, 0)
    # the second pair runs the change first
    assert [r["first"] for r in report["sides"]["change"]["runs"]] == [False, True]
    assert [r["digest"] for r in report["sides"]["change"]["runs"]] == ["a", "b"]
