"""Time, in this fresh process, importing padiclf and building a run's inputs.

    python3 perfbench/setup_probe.py <workload> <seed> <seconds> <workdir>

Prints the seconds and then the calibration kernel's seconds, measured
after the timed part.  run.py starts it several times and reports the
median of the scaled times as setup_s.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import padiclf.cli  # noqa: E402,F401
import workloads  # noqa: E402

workload, seed, seconds, workdir = sys.argv[1:5]
workloads.build(workload, int(seed), float(seconds), workdir)
elapsed = time.perf_counter() - T0

import calibrate  # noqa: E402

print(elapsed, calibrate.speed_sample())
