"""Machine-speed probe: a fixed loop timed next to every measured operation.

On a shared 2-core machine the speed of a core drifts by a third or more
over tens of seconds, so the wall time of the same sumnet call does too
(predict at C=16 S=64 moved between 40 and 73 ms inside one process).  A
run of half a minute can sit in a slow phase from start to end, which no
median within the run removes.

The probe shares no code with sumnet.  It has two parts, timed apart:
small numpy kernels driven by interpreter work, and whole-array passes over
a 2 MB buffer that stream through memory.  A noisy neighbour slows the two
by different amounts, and sumnet's operations differ the same way: a B=1
predict or a C=4 step lives in cache and tracks the interpreter part, while
a C=16 step with B=8 streams [B, L, C, N] arrays of megabytes and tracked
the sum of both parts better than either alone.  So an operation whose
scan arrays exceed CACHE_BYTES is scaled by the sum, any other by the
interpreter part alone.  Each duration is reported scaled to the probe's
reference speed:

    scaled = measured * reference / median(the WINDOW probes around it)

so a phase that slows the machine slows the probe alike and cancels, while
a change to sumnet moves only the measured side.  The median over a few
neighbouring probes keeps the jitter of a single short probe out of the
scale; the phases it corrects last seconds.  Raw durations are kept next
to the scaled ones in every run record.
"""

from __future__ import annotations

import time

import numpy as np

# Each part's duration in a quiet phase of a 2-core x86-64 machine (5th
# percentile of several hundred probes; numpy 2.4, Python 3.11), so scaled
# figures read as milliseconds on that machine when nothing else runs.
REFERENCE_INTERP_S = 3.0e-3
REFERENCE_MEMORY_S = 2.85e-3
ITERATIONS = 300  # interpreter-bound part
PASSES = 6  # memory-bound part
WINDOW = 10  # probes per scale: five before a duration, five after
CACHE_BYTES = 1 << 20  # scan arrays above this stream through memory


class SpeedProbe:
    """Times the probe loop and scales durations by the speed it finds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((64, 64))
        self._x = rng.standard_normal((8, 256, 16, 8))
        self._buf = np.empty_like(self._x)
        self.samples: list = []  # (interpreter part, memory part) seconds

    def mark(self) -> int:
        """Run the probe once; returns the index of its sample."""
        a, x, buf = self._a, self._x, self._buf
        t0 = time.perf_counter()
        for i in range(ITERATIONS):
            y = a @ a[:, :8]
            z = np.exp(x[:, i % 256] * -0.1) * y[:16, :8]
            float(z[0, 0, 0])
            _ = {j: j * 2 for j in range(20)}
        t1 = time.perf_counter()
        for _ in range(PASSES):
            np.exp(x, out=buf)
            np.multiply(buf, x, out=buf)
            buf.sum(axis=1)
        self.samples.append((t1 - t0, time.perf_counter() - t1))
        return len(self.samples) - 1

    def scale(self, mark: int, streams: bool) -> float:
        """Scale for a duration measured between probes `mark` and `mark + 1`.

        `streams` says whether the measured operation's arrays exceed
        CACHE_BYTES; see the module docstring.
        """
        lo = max(0, mark + 1 - WINDOW // 2)
        window = self.samples[lo : lo + WINDOW]
        if streams:
            ref = REFERENCE_INTERP_S + REFERENCE_MEMORY_S
            return ref / float(np.median([a + b for a, b in window]))
        return REFERENCE_INTERP_S / float(np.median([a for a, _ in window]))
