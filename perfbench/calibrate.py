"""Machine-speed calibration for times measured on a shared host.

On a host shared with other tenants the same Python code runs at a
speed that changes by up to 2x within seconds (the benchmark was written
on a 2-vCPU sandbox that switches between a fast and a slow state).
Every time the benchmark reports is therefore scaled to a reference
speed: a fixed pure-Python kernel, which shares no code with padiclf,
is timed next to the measured work, and a time t becomes

    t * K_REF_S / k

with k the kernel's time at that moment.  A change to padiclf moves t
and not k, so the scaled time moves with it; a slowdown of the host
moves both and cancels.  The raw times are printed beside the scaled
ones.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# The kernel's time (best of three) in the fast state of the host the
# benchmark was written on; scaled times read as seconds on that host.
K_REF_S = 0.0013


def _kernel() -> int:
    """Interpreter work of the kinds padiclf does: dicts, big-int modular
    products and Fractions."""
    table: dict = {}
    x, mod, acc = 12345678901234567, 5**40, 0
    for i in range(2000):
        table[i % 97] = table.get(i % 97, 0) + i
        x = x * 31 % mod
        acc += x % 1000
    f = Fraction(0)
    for i in range(1, 300):
        f += Fraction(i, i + 7)
    return acc + f.numerator % 7


def speed_sample() -> float:
    """Seconds for one kernel run, best of three, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def scale(seconds: float, kernel_s: float) -> float:
    """A measured time expressed at the reference speed."""
    return seconds * K_REF_S / kernel_s
