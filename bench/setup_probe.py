"""Time one set-up in this fresh interpreter and print it in seconds.

Set-up is importing the package plus building one workload's inputs from a
seed. The calibration kernel runs right before and after, and the time is
printed raw and in reference seconds (see calibrate.py). run.py starts this script several
times and reports the median.
Usage: python3 bench/setup_probe.py WORKLOAD SEED
"""

from __future__ import annotations

import sys
from time import perf_counter

import calibrate
import package
import workloads


def main() -> None:
    workload = workloads.WORKLOADS[sys.argv[1]]
    ref = workload.load_reference()
    kernel_before = calibrate.kernel_seconds()
    start = perf_counter()
    ic = package.import_package()
    workload.setup(ic, int(sys.argv[2]), ref)
    seconds = perf_counter() - start
    kernel = (kernel_before + calibrate.kernel_seconds()) / 2
    print(seconds, seconds * calibrate.REFERENCE_S / kernel)


if __name__ == "__main__":
    main()
