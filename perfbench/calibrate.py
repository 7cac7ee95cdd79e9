"""Host-speed calibration: times reported in reference seconds.

The 2-vCPU host this benchmark was built on changes speed by tens of
percent over minutes: a fixed pure-Python loop's 60-second window medians
spread 14-19% (quartile distance over median), CPU time tracking wall time,
so longer runs do not average it out.  Each sample therefore times a fixed,
standard-library-only text workload (JSON decode, lowercase, regex, split,
dict counting: the mix of the tweetlex hot path) in the same process just
before and just after its measurement, and scales its own times by
``REFERENCE_S`` over the mean of the two.  On 5 minutes of ``bulk_1w``
samples this cut the spread of 30-second window medians from 0.17 to 0.04.
The calibration does not touch tweetlex, so it reads the same on every
commit; raw times are reported next to the scaled ones.
"""

from __future__ import annotations

import gc
import json
import random
import re
import statistics
import time

#: Median calibration time in fresh processes on the reference host (2 vCPU,
#: Python 3.11.7); only sets the scale of a reference second.
REFERENCE_S = 0.0220
REPEATS = 5

_rng = random.Random(20170701)
_WORDS = ["".join(_rng.choice("abcdefghijklmnop")
                  for _ in range(_rng.randint(3, 9))) for _ in range(500)]
_LINES = [json.dumps({"id": str(i), "text": " ".join(
    _rng.choice(_WORDS) + _rng.choice(("", "!", ",", "_x"))
    for _ in range(10))}) for i in range(2000)]
_PUNCT = re.compile(r"[^\w\s]|_")


def _workload() -> int:
    counts: dict[str, int] = {}
    for line in _LINES:
        record = json.loads(line)
        for token in _PUNCT.sub(" ", record["text"].lower()).split():
            counts[token] = counts.get(token, 0) + 1
    return len(counts)


def measure() -> float:
    """Median of REPEATS timings of the calibration workload, in seconds.

    The collector is off while timing, so the heap the caller holds does
    not change the figure.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            _workload()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def speed_factor(before: float, after: float) -> float:
    """Scale from raw to reference seconds for a measurement taken between
    two calibrations."""
    return REFERENCE_S / ((before + after) / 2)
