"""Host-speed reference: scales timings to a fixed speed of the machine.

On a shared machine the same code runs up to twice as slowly for
stretches of seconds to minutes, because of other tenants, with no trace
in the process's own CPU time. The benchmark therefore runs a fixed
reference kernel between calls, outside their timed intervals, and
scales each call's wall time by ``REFERENCE_SECONDS`` over the kernel's
time measured around it. A slower program reads slower; a host that is
slow for a while does not. The kernel mixes what enthier's calls do:
numpy operations on short vectors in a Python loop, building and using
an argparse parser, and JSON output. It runs twice per sample and only the second run is timed,
so what the call before it left in the caches does not count.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

#: The kernel's time on the machine the benchmark was defined on (2-vCPU
#: Intel Xeon VM, Python 3.11, numpy 2.4) in a quiet period. Scaled
#: timings are in seconds of that machine at that speed.
REFERENCE_SECONDS = 1.15e-3
#: Seconds between samples; sampling costs about 2% of a run.
SAMPLE_EVERY = 0.1
#: Samples on each side of a call that its scale is the median of.
HALF_WINDOW = 2


class HostSpeed:
    def __init__(self):
        self._matrix = np.random.default_rng(0).standard_normal((48, 48))
        self.samples: list[float] = []
        self._last = -float("inf")

    def _kernel(self) -> float:
        a = self._matrix
        for _ in range(2):
            start = time.perf_counter()
            for _ in range(100):
                x, y = a[:, 3].copy(), a[:, 5].copy()
                a[:, 3] = 0.6 * x - 0.8 * y
                a[:, 5] = 0.8 * x + 0.6 * y
            parser = argparse.ArgumentParser(prog="reference")
            commands = parser.add_subparsers(dest="command")
            for name in ("one", "two", "three"):
                sub = commands.add_parser(name, help=f"command {name}")
                sub.add_argument("path")
                sub.add_argument("--flag", action="store_true")
            parser.parse_args(["two", "document.json", "--flag"])
            json.dumps({f"key-{i}": [i, i * 1.5] for i in range(200)})
            elapsed = time.perf_counter() - start
        return elapsed

    def sample(self) -> int:
        """Index of the latest sample, taking a new one if ``SAMPLE_EVERY`` has passed."""
        if time.perf_counter() - self._last >= SAMPLE_EVERY:
            self.samples.append(self._kernel())
            self._last = time.perf_counter()
        return len(self.samples) - 1

    def scales(self, indices) -> np.ndarray:
        """Factor for each call, from the median of the samples around its own."""
        samples = np.asarray(self.samples)
        smoothed = np.array(
            [np.median(samples[max(0, i - HALF_WINDOW) : i + HALF_WINDOW + 1]) for i in range(samples.size)]
        )
        return REFERENCE_SECONDS / smoothed[np.asarray(indices, dtype=int)]
