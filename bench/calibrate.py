"""A fixed piece of work that measures the host's speed.

The machines this benchmark runs on are shared: their speed moves by tens
of percent within minutes, and every operation moves with it (CPU time
equals wall time, so the slow spells are slower cycles, not waiting).  The
run therefore times this kernel before and after each operation and scales
the operation's time by ``REFERENCE_S`` over the kernel's mean time around
it: the times it reports are those of a host on which the kernel takes
``REFERENCE_S``.  The kernel mixes interpreted Python (dict and integer
work) with BLAS products, the two kinds of work chamberwalk does.  The
products are 60 x 60, below OpenBLAS's threshold for threading, so that the
kernel runs on one thread and does not wait for a busy second core.
"""

import time

import numpy as np

REFERENCE_S = 0.05  # about the kernel's median time on the reference machine (README)

_A = np.random.default_rng(0).random((60, 60))


def kernel_s():
    """Wall time of one run of the kernel, in seconds (about 50 ms)."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(120000):
        table[i & 255] = acc
        acc = (acc + i * 7) % 1000003
    b = _A
    for _ in range(1000):
        b = _A @ b
        b = b / b.max()
    return time.perf_counter() - start


def scale(seconds, kernel_times):
    """``seconds`` at the reference speed, given the kernel's times around it."""
    return seconds * REFERENCE_S * len(kernel_times) / sum(kernel_times)
