"""Time one set-up in a fresh interpreter, then the calibration kernel.

Usage: python3 bench/setup_probe.py <workload> <seed>

The clock covers ``import chamberwalk`` (numpy included) and the one-time
builds the workload's library calls reuse; see ``inputs.setup``.  Prints
the set-up time and the kernel's time right after it (its second run: the
first one starts the BLAS threads), both in seconds.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import inputs  # noqa: E402  (standard library only: nothing heavy before the clock)


def main():
    workload, seed = sys.argv[1], int(sys.argv[2])
    start = time.perf_counter()
    inputs.setup(workload, seed)
    setup_s = time.perf_counter() - start
    import calibrate

    calibrate.kernel_s()
    print(setup_s, calibrate.kernel_s())


if __name__ == "__main__":
    main()
