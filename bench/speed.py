"""A fixed reference computation that measures how fast the machine runs right now.

The sandbox this benchmark was built in (2 vCPUs at 2.1 GHz, Python 3.11)
shares its cores with other work: the same law-corpus round took anywhere
from 0.55 s to 1.0 s, in phases lasting from a second to minutes, and a
20-second run's throughput moved by up to 25 % between runs of the same
inputs.  A run therefore times this kernel every SAMPLE_EVERY_S between
operations and multiplies each operation's wall time by
`NOMINAL_S / median of the WINDOW kernel samples around it`, which states
the time at the machine speed at which the kernel takes NOMINAL_S.  That
brought the spread of five same-seed law-corpus runs from 17 % to 2 %.

The kernel is plain Python of the kind adamsrr runs (sparse polynomial
products over tuple monomials with rational coefficients, a recursive tree
walk) and belongs to the benchmark, so no change to the program can change
it.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.010   # about the kernel's median time on that sandbox
SAMPLE_EVERY_S = 0.25
WINDOW = 9          # samples, about 2 s of run time


def _inputs():
    rng = random.Random(0)
    poly = {}
    for _ in range(25):
        mono = tuple(sorted({(f"x{rng.randint(0, 4)}", rng.randint(-2, 3)) for _ in range(3)}))
        poly[mono] = Fraction(rng.randint(1, 9), rng.randint(1, 3))

    def tree(depth):
        if depth == 0:
            return ("leaf", rng.randint(1, 5))
        return (rng.choice(("sum", "prod")), tree(depth - 1), tree(depth - 1))

    return poly, tree(8)


POLY, TREE = _inputs()


def _walk(node) -> int:
    kind = node[0]
    if kind == "leaf":
        return node[1]
    left, right = _walk(node[1]), _walk(node[2])
    return left + right if kind == "sum" else (left * right) % 1000003


def kernel() -> float:
    """Run the reference computation once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    out = {}
    for m1, c1 in POLY.items():
        for m2, c2 in POLY.items():
            d = dict(m1)
            for v, e in m2:
                ne = d.get(v, 0) + e
                if ne:
                    d[v] = ne
                else:
                    d.pop(v, None)
            m = tuple(sorted(d.items()))
            out[m] = out.get(m, 0) + c1 * c2
    _walk(TREE)
    str(sorted(out.items()))
    return time.perf_counter() - t0


class Speedometer:
    """Kernel samples taken between operations, at most every SAMPLE_EVERY_S."""

    def __init__(self):
        self.samples: list[float] = []
        self._next = 0.0

    def maybe_sample(self) -> int:
        """Take a sample if one is due; returns the index of the latest sample."""
        if time.perf_counter() >= self._next:
            self.samples.append(kernel())
            self._next = time.perf_counter() + SAMPLE_EVERY_S
        return len(self.samples) - 1

    def scale(self) -> float:
        """Factor that turns times measured alongside all samples into nominal-speed times."""
        return NOMINAL_S / statistics.median(self.samples)

    def local_scales(self) -> list[float]:
        """Per sample: the factor from the median of the WINDOW samples around it."""
        half = WINDOW // 2
        return [NOMINAL_S / statistics.median(self.samples[max(0, i - half):i + half + 1])
                for i in range(len(self.samples))]
