"""End-to-end benchmark of the padiclf CLI.

    python3 perfbench/run.py --workload lvalue --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  The load is one process, one thread, closed loop with one
client: each call to padiclf.cli.main(argv) starts when the previous
one returns, with stdout captured in memory.

--trace 0 times every call of the run with nothing patched and reports
the end-to-end metrics.  --trace 1 is a separate run: it runs the first
half of the same calls twice each, once plain and once with spans
around every layer (alternating which goes first), and reports the
per-layer metrics and the tracing overhead.  Times are scaled to a
reference machine speed (see calibrate.py); the summary line also gives
them unscaled.

Outputs are checked after the timed loop, against references that do
not come from the timed code path (see reference.py).  Every line but
the last is a human-readable JSON record (environment, per-workload
summary with all seven end-to-end metrics and the output digest); the
last line is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import workloads
from reference import Checker
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 7


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_program():
    """Import padiclf from this checkout's src/ and nowhere else."""
    if not (SRC / "padiclf" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'padiclf'}")
    sys.path.insert(0, str(SRC))
    import padiclf.cli
    if Path(padiclf.__file__).resolve().parent != SRC / "padiclf":
        raise SystemExit(f"error: imported padiclf from {padiclf.__file__}")
    return padiclf.cli


def _git_revision():
    """HEAD's commit, or None outside a git checkout."""
    try:
        # the ceiling keeps git from reporting a repository above ROOT
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    lines = sum(len(f.read_text().splitlines()) for f in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_revision": _git_revision(),
        "src_lines": lines,
        "load": "one process, one thread, closed loop, one client",
    }


def measure_setup(args, workdir: Path) -> tuple[float, float]:
    """Median over fresh processes of the time to import padiclf and build
    the inputs: (scaled, raw) seconds."""
    scaled, raw = [], []
    for i in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), args.workload,
             str(args.seed), str(args.seconds), str(workdir / f"probe{i}")],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        seconds, kernel_s = map(float, out.stdout.split()[-2:])
        scaled.append(calibrate.scale(seconds, kernel_s))
        raw.append(seconds)
    return statistics.median(scaled), statistics.median(raw)


def one_call(cli, argv):
    """(seconds, exit code or None if it raised, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except Exception as exc:  # a raising call is a failed call
            rc = None
            err.write(f"raised {exc!r}")
        dt = time.perf_counter() - t0
    return dt, rc, out.getvalue(), err.getvalue()


def _quantile(xs, q):
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def timed_run(args, cli, calls, checker, setup):
    results = []
    kernel = [calibrate.speed_sample()]
    t0 = time.perf_counter()
    for call in calls:
        results.append(one_call(cli, call.argv))
        kernel.append(calibrate.speed_sample())
    wall = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for call, (_, rc, out, err) in zip(calls, results):
        checker.check(call, rc, out, err)
    raw_s = [r[0] for r in results]
    # each call at the speed the kernel showed just before and just after it
    lat_s = [calibrate.scale(t, (kernel[i] + kernel[i + 1]) / 2) for i, t in enumerate(raw_s)]
    lat_ms = [t * 1e3 for t in lat_s]
    metrics = {
        "ops_per_s": (len(calls) / sum(lat_s), "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (_quantile(lat_ms, 90), "ms"),
        "setup_s": (setup[0], "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    raw = {
        "ops_per_s": len(calls) / sum(raw_s),
        "op_p50_ms": statistics.median(raw_s) * 1e3,
        "op_p90_ms": _quantile(raw_s, 90) * 1e3,
        "setup_s": setup[1],
        "kernel_ms_median": statistics.median(kernel) * 1e3,
    }
    extra = {
        "fail_frac": (checker.failed / checker.attempted, "frac"),
        "overclaim_frac": (checker.overclaimed / checker.values if checker.values else 0.0,
                           "frac"),
    }
    summary = {
        "workload": args.workload, "seed": args.seed, "calls": len(calls),
        "samples": len(lat_ms), "wall_s": wall, "digest": checker.digest(),
        "values_checked": checker.values,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
        "unscaled": raw,
    }
    return metrics, summary


def traced_run(args, cli, calls, checker):
    tracer = Tracer()
    plain_s = traced_s = 0.0
    half = calls[:max(1, len(calls) // 2)]
    kernel = calibrate.speed_sample()
    for i, call in enumerate(half):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.call_id = i
                tracer.install()
                try:
                    dt, rc, out, err = one_call(cli, call.argv)
                finally:
                    tracer.uninstall()
                result = (rc, out, err)
            else:
                dt = one_call(cli, call.argv)[0]
            after = calibrate.speed_sample()
            dt = calibrate.scale(dt, (kernel + after) / 2)
            kernel = after
            if traced:
                traced_s += dt
            else:
                plain_s += dt
        checker.check(call, *result)
    WORK.mkdir(exist_ok=True)
    tracer.write(str(WORK / f"spans-{args.workload}-{args.seed}.jsonl"))
    metrics = tracer.metrics(plain_s, traced_s)
    shares = {name: round(v[0], 4) for name, v in metrics.items() if name.endswith("self_frac")}
    summary = {"workload": args.workload, "seed": args.seed, "traced_calls": len(half),
               "plain_s": plain_s, "traced_s": traced_s, "layer_self_frac": shares,
               "span_self_frac": tracer.span_self_frac(),
               "spans_kept": len(tracer.records)}
    return metrics, summary


def main(argv=None) -> int:
    args = _parse(argv)
    cli = _import_program()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = None if args.trace else measure_setup(args, workdir)
        calls = workloads.build(args.workload, args.seed, args.seconds, str(workdir / "run"))
        checker = Checker()
        if args.trace:
            metrics, summary = traced_run(args, cli, calls, checker)
        else:
            metrics, summary = timed_run(args, cli, calls, checker, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"env": environment()}))
    print(json.dumps(summary))
    for line in checker.failures[:20]:
        print(json.dumps({"failure": line}))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
