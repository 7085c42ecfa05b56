"""Host-speed probe: measured times restated at a fixed reference speed.

On a shared host the speed one thread gets swings by up to 1.7x, on both
cores, for periods from seconds to minutes (see the README for the traces).
A whole 35-second run can sit in a slow period, so no statistic of raw
times taken within a run repeats from run to run.

The benchmark therefore runs a fixed probe (see Probe) between the
program's calls, and every PROBE_INTERVAL_S while a call runs, and restates
each stretch of the call at the speed the probes on either side of it saw:

    reference seconds = measured seconds / slowness the probes measured

Inside a call an interval timer's signal handler runs the probe, between
two of the program's Python bytecodes wherever the program happens to be,
so how often it runs does not depend on how the program is split into
functions. The probes' own time is excluded from the call. The probe is
independent of hsfusion, so a change to the program moves these times as
it moves raw times; only the host's swings cancel. Raw times are reported
beside them.
"""

import math
import mmap
import signal
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

PROBE_INTERVAL_S = 0.1

# Bound here so that a traced round's wrapper around np.linalg.svd never sees the probe.
_svd = np.linalg.svd
_fft = np.fft.fft


class Probe:
    """Seven fixed kernels of about 1 ms each at the reference speed.

    Calling it returns the host's slowness: the geometric mean over the
    kernels of measured time / REFERENCE time, so 1.0 at the reference
    speed and 1.5 when the host runs a third slower. The kernels cover what
    hsfusion spends its time on: small matmuls, memory copies, interpreter
    work, per-slice SVDs of thin matrices, FFTs along an axis, page faults
    on freshly mapped memory, and strided window sums like SSIM's filter.
    """

    REFERENCE_MS = {"matmul": 1.15, "copy": 1.15, "python": 1.0, "svd": 0.45, "fft": 0.5,
                    "faults": 1.8, "window": 0.6}

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((64, 64))
        self._src = rng.random(1 << 17)
        self._dst = np.empty_like(self._src)
        self._thin = [rng.random((63, 3)) for _ in range(20)]
        self._f = rng.random((64, 3, 64))
        self._img = rng.random((64, 64))
        self._w = np.full(11, 1.0 / 11)

    def _matmul(self):
        for _ in range(80):
            self._a @ self._a

    def _copy(self):
        for _ in range(16):
            np.copyto(self._dst, self._src)

    @staticmethod
    def _python():
        s = 0
        for i in range(20000):
            s += i

    def _svd(self):
        for m in self._thin:
            _svd(m, full_matrices=False)

    def _fft(self):
        for _ in range(5):
            _fft(self._f, axis=2)

    def _window(self):
        for _ in range(6):
            rows = np.einsum("ijk,k->ij", sliding_window_view(self._img, 11, axis=0), self._w)
            np.einsum("ijk,k->ij", sliding_window_view(rows, 11, axis=1), self._w)

    @staticmethod
    def _faults():
        with mmap.mmap(-1, 1 << 21) as region:  # 512 fresh pages, one write each
            pages = np.frombuffer(region, dtype=np.float64)
            pages[::512] = 1.0
            del pages

    def __call__(self):
        log_sum = 0.0
        for name, ref_ms in self.REFERENCE_MS.items():
            t0 = time.perf_counter()
            getattr(self, "_" + name)()
            log_sum += math.log((time.perf_counter() - t0) * 1000.0 / ref_ms)
        return math.exp(log_sum / len(self.REFERENCE_MS))


class HostSpeed:
    """Runs the probe around and inside timed calls and restates their times."""

    def __init__(self, probe_inside=True, capacity=1 << 16):
        """probe_inside=False probes only before and after each timed call.

        That is for calls whose work runs outside this process (a child
        process on the same core, which a probe would compete with) and for
        traced rounds.
        """
        self.probe = Probe()
        self.probe_inside = probe_inside
        # Start, end and measured slowness of each probe, in arrays allocated
        # once: lists growing on the heap during a call would change where
        # the program's own allocations land, and with it its page faults.
        self._log = np.zeros((3, capacity))
        self.count = 0
        if probe_inside:
            signal.signal(signal.SIGALRM, lambda signum, frame: self._run_probe())

    @property
    def starts(self):
        return self._log[0, : self.count]

    @property
    def ends(self):
        return self._log[1, : self.count]

    @property
    def values(self):
        return self._log[2, : self.count]

    def maybe_probe(self):
        """Probe unless the last probe ended less than PROBE_INTERVAL_S ago."""
        n = self.count
        if not n or time.perf_counter() - self._log[1, n - 1] >= PROBE_INTERVAL_S:
            self._run_probe()

    def _run_probe(self):
        n = self.count
        if n == self._log.shape[1]:
            return
        t0 = time.perf_counter()
        value = self.probe()
        self._log[:, n] = (t0, time.perf_counter(), value)
        self.count = n + 1

    def timed(self, fn, *args, **kwargs):
        """Run fn; returns (result, (seconds less probe pauses, reference seconds))."""
        self.maybe_probe()
        first = self.count
        if self.probe_inside:
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if self.probe_inside:
                signal.setitimer(signal.ITIMER_REAL, 0)
        self.maybe_probe()
        return result, self.restate(start, end, first)

    def restate(self, start, end, first):
        edges = [start]
        for a, b in zip(self.starts[first:], self.ends[first:]):
            if a >= end:
                break
            edges += [a, b]
        edges.append(end)
        ends = self.ends
        values = self.values
        raw = norm = 0.0
        for a, b in zip(edges[0::2], edges[1::2]):
            before = np.searchsorted(ends, a, side="right") - 1  # last probe ended by a
            after = np.searchsorted(ends, b, side="left")  # first probe ending after b
            near = [values[i] for i in (before, after) if 0 <= i < len(values)]
            raw += b - a
            norm += (b - a) / float(np.mean(near))
        return raw, norm
