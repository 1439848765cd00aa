"""A fixed reference computation that gauges how fast the machine runs now.

On a shared host, identification calls (thousands of LAPACK calls on tiny
matrices, wrapped in interpreter work) ran up to 1.9x slower for minutes at
a time, while the same code's work did not change (see README.md).  The
``identify_bounds`` worker therefore runs this reference between batches, and
the benchmark reports each batch's time, and each call's, scaled to the
reference's nominal duration::

    scaled = raw * NOMINAL_S / reference

where ``reference`` is the mean of the reference times just before and just
after the batch.  A scaled time reads as seconds on a machine where the
reference takes ``NOMINAL_S``.  A change to the program moves it as much as
the raw time, because the reference does not use the program: it imports
nothing from ``rcreg``.

The reference does the same kind of work as the identification calls: a
scalar loop that indexes small numpy arrays, and symmetric eigenvalue and
singular value calls on 2x2 to 6x6 matrices.
"""

from __future__ import annotations

import time

import numpy as np

# Close to the usual duration of one reference on a 2-vCPU x86-64 VM (Python
# 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31), where its run median read mostly
# 0.029-0.037 s, and 0.017 s in one fast stretch.  Changing it rescales
# every scaled time, so it stays fixed once results exist.
NOMINAL_S = 0.035


class Reference:
    """Inputs of the reference computation, built once per process."""

    def __init__(self):
        rng = np.random.default_rng(20210707)
        self.gram = np.cov(rng.normal(size=(55, 200)))
        self.small = [a @ a.T for k in (2, 3, 4, 5, 6) for a in [rng.normal(size=(k, k))] * 120]

    def work(self) -> float:
        """Run the reference once; the returned sum keeps every result live."""
        g, beta = self.gram, np.zeros(self.gram.shape[0])
        for _ in range(100):
            for k in range(g.shape[0]):
                beta[k] = (1.0 - g[k] @ beta + g[k, k] * beta[k]) / g[k, k]
        total = float(beta.sum())
        for m in self.small:
            total += float(np.linalg.eigvalsh(m)[0])
            total += float(np.linalg.svd(m, compute_uv=False)[0])
        return total

    def seconds(self) -> float:
        """Wall time of one run of the reference."""
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0


def factor(before: float, after: float) -> float:
    """What scales a time taken between two reference runs to the nominal speed."""
    return NOMINAL_S * 2.0 / (before + after)
