"""Time one fresh-process set-up of a workload: importing the library and
building the workload's inputs.  Prints the seconds on stdout.

    PYTHONPATH=src python3 bench/setup_probe.py WORKLOAD SEED
"""

import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402  (imports dimonoids; part of what is timed)

workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
print(time.perf_counter() - t0)
