"""Alternating pairs of benchmark runs of two trees, written to BENCH_<label>.json.

    python3 tools/bench_pairs.py --label measure_period --workload measure \
        --base cdecd65 --change HEAD --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 20

Each side is a git revision of this repository, run from a fresh
`git archive` of it in a temporary directory, or an existing directory,
run in place.  Pair i runs `perfbench/run.py --seed seeds[i] --trace 0`
unchanged, as a subprocess, in both trees with PYTHONDONTWRITEBYTECODE=1,
the base first in even pairs and the change first in odd ones.

From each run it keeps the environment (line 1), the digest (line 2), and
`correct`, `failed` and the end-to-end metrics (last line).  The file,
written to the current directory, holds every run, each side's median and
quartiles per metric, and per metric the number of pairs the change won
(ties count for neither; BENCHMARK.json gives which way is better).  The
exit code is 1 if the two sides' digests differ at some seed, or if a run
of either side is not `correct` or has `failed > 0`, which perfbench/run.py
itself exits 0 on; each such run is named on stderr by side and seed.  The
file is written either way.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--base", required=True, help="git revision or directory")
    ap.add_argument("--change", required=True, help="git revision or directory")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    return ap.parse_args(argv)


def _git(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True, check=True)


def _tree(source: str, scratch: str) -> tuple[Path, str | None]:
    """(directory to run in, commit) of a side: the directory itself and its
    HEAD, or a fresh archive of the revision."""
    if Path(source).is_dir():
        try:
            head = _git("rev-parse", "HEAD", cwd=source).stdout.decode().strip()
        except subprocess.CalledProcessError:
            head = None
        return Path(source).resolve(), head
    commit = _git("rev-parse", "--verify", f"{source}^{{commit}}").stdout.decode().strip()
    dest = Path(tempfile.mkdtemp(dir=scratch))
    archive = _git("archive", "--format=tar", commit).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest, commit


def _run(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(environment, run record) of one perfbench/run.py run in tree."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True)
    if out.returncode:
        sys.exit(f"error: perfbench/run.py failed in {tree} at seed {seed}:\n{out.stderr}")
    lines = [json.loads(line) for line in out.stdout.splitlines()]
    summary, result = lines[1], lines[-1]
    return lines[0]["env"], {
        "seed": seed,
        "digest": summary["digest"],
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def _spread(values: list) -> dict:
    """Median and quartiles (inclusive method) of one metric's runs."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    args = _parse(argv)
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    with tempfile.TemporaryDirectory() as scratch:
        trees = {side: _tree(getattr(args, side), scratch) for side in SIDES}
        runs = {side: [] for side in SIDES}
        envs = {}
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                envs[side], record = _run(trees[side][0], args.workload, seed, args.seconds)
                runs[side].append({**record, "first": side == order[0]})
    wins = {}
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        wins[name] = sum(sign * (c["metrics"][name] - b["metrics"][name]) > 0
                         for b, c in zip(runs["base"], runs["change"]))
    same = all(b["digest"] == c["digest"] for b, c in zip(runs["base"], runs["change"]))
    bad = [(side, r) for side in SIDES for r in runs[side]
           if not r["correct"] or r["failed"] > 0]
    for side, r in bad:
        print(f"error: the {side} run at seed {r['seed']} reads correct {r['correct']}, "
              f"failed {r['failed']}", file=sys.stderr)
    report = {
        "label": args.label,
        "workload": args.workload,
        "seconds": args.seconds,
        "seeds": args.seeds,
        "python": envs["base"]["python"],
        "nproc": envs["base"]["nproc"],
        "pairs": len(args.seeds),
        "change_won": wins,
        "digests_equal": same,
        "sides": {side: {
            "source": getattr(args, side),
            "revision": trees[side][1],
            "src_lines": envs[side]["src_lines"],
            "summary": {name: _spread([r["metrics"][name] for r in runs[side]])
                        for name in better},
            "runs": runs[side],
        } for side in SIDES},
    }
    Path(f"BENCH_{args.label}.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0 if same and not bad else 1


if __name__ == "__main__":
    sys.exit(main())
