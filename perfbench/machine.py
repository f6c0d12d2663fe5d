"""Machine-speed probe: a fixed numpy job, timed in a helper process.

On a shared virtual machine the speed available to one process drifts by
10-30% over minutes. The runner interleaves this probe with its ops and
scales its latency figures by the probe's median time (see README.md). The
job resembles a verify op's falsifier and grid scan - splitmix-style
hashing, logarithms, square roots and cosines on 5,000 x 32 arrays, a
16-step accumulation and a 257^2 grid - so that page faults and memory
traffic drift with the machine as the ops do. It calls nothing in dfrc,
and it runs in its own process, so that neither its memory nor its
allocator's state mixes with the program under test's.

Run as a script this file is the helper: it warms up, writes "ready", then
runs the job once for each line read from standard input and writes the
job's time in seconds, and it exits at the end of its input.
"""

import math
import statistics
import subprocess
import sys
import time

import numpy as np

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
WARM_UP = 5


def job():
    x = np.arange(1, 5000 * 32 + 1, dtype=np.uint64).reshape(5000, 32) * GOLDEN
    x ^= x >> np.uint64(31)
    u = ((x >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u[:, 0::2]))
    angle = 2.0 * math.pi * u[:, 1::2]
    re = radius * np.cos(angle)
    im = radius * np.sin(angle)
    acc = np.zeros(5000)
    for p in range(16):
        acc += re[:, p] * re[:, p] + im[:, p] * im[:, p]
    grid = np.linspace(0.0, 1.0, 257)[:, None] * np.cos(np.linspace(0.0, 6.0, 257))[None, :]
    return float(acc.sum() + np.sqrt(np.abs(grid) + 1.0).max())


class SpeedProbe:
    """Runs the helper and times the job between ops.

    ``keep_up(busy)`` runs the job until the time spent on it reaches
    ``share`` of ``busy`` seconds of other work, so the probe samples the
    machine evenly over a run. Use as a context manager, so that the helper ends.
    """

    def __init__(self, share):
        self.share = share
        self.spent = 0.0
        self.times = []
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        # wait out the helper's start and warm-up, so they overlap no timing
        self._reply()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        try:
            self.proc.stdin.close()  # the helper exits at the end of its input
        except BrokenPipeError:
            pass  # it has exited already
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def reset(self):
        self.spent = 0.0
        self.times = []

    def keep_up(self, busy):
        while self.spent < self.share * busy:
            start = time.perf_counter()
            self.proc.stdin.write("1\n")
            self.proc.stdin.flush()
            self.times.append(float(self._reply()))
            self.spent += time.perf_counter() - start

    def _reply(self):
        reply = self.proc.stdout.readline()
        if not reply:
            self.close()
            raise RuntimeError(f"speed probe helper exited with code {self.proc.returncode}")
        return reply

    def median(self):
        return statistics.median(self.times)


def main():
    for _ in range(WARM_UP):
        job()
    print("ready", flush=True)
    for _ in sys.stdin:
        start = time.perf_counter()
        job()
        print(repr(time.perf_counter() - start), flush=True)


if __name__ == "__main__":
    main()
