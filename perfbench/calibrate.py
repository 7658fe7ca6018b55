"""Host-speed calibration for the end-to-end timings.

On a shared host the same CPU-bound pass can run at very different speeds
from one minute to the next (see perfbench/README.md). A calibration
process runs a fixed pure-Python loop on the same CPU as the measured
commands, time-sharing it with them, so that it slows down when they do.
CPU seconds spent over an interval are then rescaled by the loop's rate
over that interval:

    calibrated seconds = CPU seconds * (loop units per CPU second) / NOMINAL_RATE

which is the CPU time the same work would take at a fixed reference speed.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys

# Loop units per CPU second that one calibrated second stands for; about
# the loop's rate on the machine the benchmark was written on.
NOMINAL_RATE = 1000.0

_LOOP = r"""
import os, signal, time
n = 0
def report(*_):
    os.write(1, f"{n} {time.process_time()!r}\n".encode())
signal.signal(signal.SIGUSR1, report)
os.write(1, b"ready\n")
while True:
    d = {}
    for i in range(2000):
        k = str(i % 500)
        d[k] = d.get(k, 0) + i
    n += 1
"""


class Calibrator:
    """The calibration loop as a child process; use as a context manager."""

    def __enter__(self):
        self._proc = subprocess.Popen([sys.executable, "-c", _LOOP],
                                      stdin=subprocess.DEVNULL,
                                      stdout=subprocess.PIPE)
        if self._proc.stdout.readline() != b"ready\n":
            self.__exit__()
            raise RuntimeError("calibration loop did not start")
        return self

    def __exit__(self, *exc):
        self._proc.kill()
        self._proc.wait()
        self._proc.stdout.close()
        return False

    def mark(self) -> tuple[int, float]:
        """(loop units done, loop CPU seconds) at this moment."""
        self._proc.send_signal(signal.SIGUSR1)
        units, cpu = self._proc.stdout.readline().split()
        return int(units), float(cpu)

    @staticmethod
    def scale(start: tuple[int, float], end: tuple[int, float]) -> float:
        """Factor from CPU seconds to calibrated seconds between two marks."""
        units = end[0] - start[0]
        cpu = end[1] - start[1]
        if units <= 0 or cpu <= 0:
            raise RuntimeError("calibration loop made no progress")
        return units / cpu / NOMINAL_RATE


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts, to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
