"""A fixed piece of reference work, timed beside the workload to gauge host speed.

The benchmark runs on shared hosts whose speed drifts by tens of percent over
tens of seconds, and the drift slows CPU time as much as wall time, so no
clock of the process can hide it. The reference work runs before each step of
a pass and after the last. A step's time divided by the mean of the two
reference times around it is a cost in reference units, in which the host's
drift largely cancels; `pass_rel` sums each step's median of that ratio.

The reference mixes the kinds of work the workloads do, each a few
milliseconds: small-matrix LAPACK calls from a Python loop (the sampled
checks), pure-Python JSON encoding with `indent=2` (the basis files) and a
Gram `einsum` over a stack of complex matrices (the verify loops). Its inputs
are fixed, never seeded, and it uses numpy and the standard library only, so
a change to `entbasis` cannot move it.
"""

import json

import numpy as np


class Reference:
    """Fixed inputs, built once; `run(clock)` does the work and returns its time."""

    def __init__(self):
        rng = np.random.default_rng(20260101)

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        self.small = cplx(200, 4, 4)
        self.doc = [[[round(x, 12), round(y, 12)] for x, y in row]
                    for row in rng.standard_normal((40, 40, 2)).tolist()]
        self.stack = cplx(144, 12, 12)

    def run(self, clock):
        start = clock()
        for m in self.small:
            np.linalg.svd(m, compute_uv=False)
            np.linalg.det(np.linalg.qr(m)[0])
        json.dumps(self.doc, indent=2)
        np.einsum("aij,bij->ab", self.stack.conj(), self.stack)
        return clock() - start
