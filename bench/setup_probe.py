"""One fresh-process set-up of a workload; prints its seconds.

usage: python3 bench/setup_probe.py WORKLOAD [INPUTS_DIR]

Times the imports of numpy, scipy and spiralnls, the grid construction and
the workload's set-up (the 1D shooting oracle for the study workloads, the
loading of the stored solutions for postprocess), as every CLI run pays them.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import benchenv  # noqa: E402,F401  (pins BLAS threads before numpy loads)
import workloads  # noqa: E402

if __name__ == "__main__":
    name = sys.argv[1]
    workloads.WORKLOADS[name].setup(sys.argv[2] if len(sys.argv) > 2 else None)
    print(repr(time.perf_counter() - T0))
