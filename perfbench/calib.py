"""Reference clock that takes the host's speed drift out of the timings.

The benchmark's host shares its cores with other tenants, and its speed
drifts by up to a quarter over tens of seconds.  Every timing is therefore
taken next to a fixed pure-Python reference kernel (shaped like the
integrator's inner loop: a small right-hand side called per step) and
reported in calibrated seconds:

    calibrated = raw * REF_NOMINAL_S / (reference time measured around it)

i.e. the time the work would take on this host when the kernel runs in
REF_NOMINAL_S.  The kernel and REF_NOMINAL_S are part of the benchmark's
definition: changing either changes every calibrated number.
"""

import statistics
import time

# median ref_time() on the 2-core Intel Xeon host the benchmark was defined on
REF_NOMINAL_S = 0.00067


def _rhs(r, y):
    u, v = y
    q = u * u + v * v
    return q * v - 0.5 * v - u / r, -q * u - 1.5 * u


def _kernel():
    r, y, h = 1.0, (0.3, 0.7), 1e-3
    for _ in range(2000):
        k = _rhs(r, y)
        y = (y[0] + h * k[0], y[1] + h * k[1])
        r += h
    return y


def ref_time() -> float:
    """Seconds the reference kernel takes now (best of three runs)."""
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t)
    return best


def factor(ref_a: float, ref_b: float) -> float:
    """Multiplier turning raw seconds into calibrated seconds."""
    return REF_NOMINAL_S / (0.5 * (ref_a + ref_b))


def unit_factors(refs: list[float]) -> list[float]:
    """Factors for the units between consecutive references.

    Unit i runs between refs[i] and refs[i + 1].  Its factor uses the median
    of the four nearest references (two before it, two after): one noisy
    reference is outvoted, while a slow spell of a few units still shows
    in the references taken inside it.
    """
    return [REF_NOMINAL_S / statistics.median(refs[max(0, i - 1) : i + 3]) for i in range(len(refs) - 1)]
