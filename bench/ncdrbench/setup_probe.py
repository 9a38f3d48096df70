"""Set-up cost of a fresh process: import ncdr, the canonical specs and the
lazy caches every user pays once.  Prints one JSON line with the CPU seconds
(of this thread) and the wall seconds of that set-up, less the calibration
samples taken during it, and the calibration factor of those samples (see
calib.py).  The calibration module, stdlib only, is imported before the
clock starts.
"""

import json
import time

from ncdrbench.calib import Calibrator

cal = Calibrator()
with cal:
    start, cpu_start = time.perf_counter(), time.thread_time()
    import ncdr
    from ncdr.linmap import big_c

    H, C = ncdr.QUATERNIONS, ncdr.COMPLEX
    big_c(H)
    big_c(C)
    H._nonzero_triples
    C._nonzero_triples
    end, cpu_end = time.perf_counter(), time.thread_time()
    wall_s = end - start - cal.spent_wall
    cpu_s = cpu_end - cpu_start - cal.spent_cpu

print(json.dumps({"setup_s": cpu_s, "wall_s": wall_s, "factor": cal.factor(start, end)}))
