"""
The machine-speed probe of an untraced pass.

The worker imports this after `import qweyl`, so it adds nothing to the
measured set-up.
"""

import signal
import time

# Query time between two speed probes.  At ~0.6 ms a probe, this costs
# ~3% of a pass, which is excluded from the reported query time.
PROBE_EVERY_S = 0.02


def calibration_unit() -> int:
    """Fixed pure-Python work of the kind qweyl does: small tuples as dict keys."""
    d = {}
    for i in range(3000):
        k = (i % 97, i % 13)
        d[k] = d.get(k, 0) + i
    return len(d)


class SpeedProbe:
    """Times calibration_unit() every PROBE_EVERY_S of query time.

    A SIGALRM handler runs between two bytecodes of whatever query is
    executing, so the probes sample the machine's speed evenly over the
    pass, long queries included.  On a shared host that speed changes by
    up to 2x within minutes; the runner divides a pass's query time by
    the mean probe time to take that change out.  `spent` is the time
    the handler took, which the caller subtracts from the pass.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._stopped = False
        self._previous = None

    def _probe(self):
        t0 = time.perf_counter()
        calibration_unit()
        self.samples.append(time.perf_counter() - t0)

    def _fire(self, signum, frame):
        # a signal that arrived just before stop() is handled after it:
        # re-arming then would fire into the restored default handler
        if self._stopped:
            return
        t0 = time.perf_counter()
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)
        self.spent += time.perf_counter() - t0

    def start(self):
        self._probe()  # so that even a pass shorter than PROBE_EVERY_S has a sample
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

    def stop(self):
        self._stopped = True
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def probe_s(n: int = 3) -> float:
    """Mean time of n calibration units, run here and now."""
    t0 = time.perf_counter()
    for _ in range(n):
        calibration_unit()
    return (time.perf_counter() - t0) / n
