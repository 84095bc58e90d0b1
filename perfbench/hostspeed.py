"""Host speed, sampled inside the benchmark process while the program runs.

On a shared host, other tenants slow this process by up to 1.5x, for
seconds to minutes at a time; process CPU time grows with wall time, so the
slowdown is not time spent descheduled. Probing both vCPUs of a 2-vCPU
guest at once showed their slowdowns uncorrelated, yet picking the faster
vCPU before every stage did not change the median or spread of a timed
repeat: a slow phase that lasts the whole run cannot be avoided, only
measured. So ``Probe`` measures it: while a timed piece runs, a profiling
timer interrupts the process every INTERVAL_S of its CPU time, and the
handler runs a fixed reference kernel, a small dense matrix product, twice
and times the second run. The piece's time, less the handler's, is then
scaled by REFERENCE_US over the median kernel time.

The kernel was chosen by timing candidates in the same handler while the
train and eval workloads' timed stages alternated for 330 s on 2 vCPUs.
Timed on its first run, the product read 120 us under train and 183 us
under eval at the same times: it measured the workload's use of the cache,
not the host. Timed on its second run it read 92 and 101 us, and scaling by
it cut the quartile spread of the repeat time, as a share of its median,
from 0.115 to 0.058 (train, 29 repeats) and from 0.130 to 0.091 (eval, 29
repeats); the repeat time moved 0.97x and 0.92x as much as the kernel time.
A smaller product and a pure-Python loop tracked the workloads less well.
"""

import signal
import statistics
import time
from contextlib import contextmanager

INTERVAL_S = 0.05
# A round value near the fastest median kernel time seen on that host;
# scaled times read as the seconds a piece takes with the host undisturbed.
REFERENCE_US = 75.0


class Probe:
    """Kernel times (µs) sampled during ``sampling()``, and the seconds the
    sampling itself took."""

    def __init__(self):
        import numpy as np  # here, so that the child pins BLAS threads first

        rng = np.random.default_rng(0)
        self._np = np
        self._a = rng.normal(size=(128, 64))
        self._b = rng.normal(size=(64, 64))
        self.samples_us: list[float] = []
        self.spent_s = 0.0

    def kernel(self) -> None:
        for _ in range(3):
            self._np.maximum(self._a @ self._b, 0.0).max(axis=0)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.kernel()  # brings the operands back into the cache
        t1 = time.perf_counter()
        self.kernel()
        t2 = time.perf_counter()
        self.samples_us.append(1e6 * (t2 - t1))
        self.spent_s += t2 - t0

    @contextmanager
    def sampling(self):
        old = signal.signal(signal.SIGPROF, self._tick)
        self._tick(signal.SIGPROF, None)  # so that even a short block has a sample
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, old)


def repeat_s(run: dict) -> float:
    """Seconds of one Runner.run result as they would read on the reference
    host: its stage seconds summed and scaled by the sampled kernel time."""
    return sum(run["stages"].values()) * REFERENCE_US / statistics.median(run["probe_us"])
