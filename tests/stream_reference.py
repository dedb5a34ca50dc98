"""The horizontal probe stream drawn one candidate at a time.

The reference that sets.segment_chunks, the function falsifiers' stream,
must reproduce: chunk c of the stream comes from default_rng([seed, 0xF, c])
as PROBE_CHUNK points of K (uniform_points), then their directions and
log-magnitudes; each candidate is then stepped with the scalar group law
and tested with K.contains.  The set checks' line stream has its own
reference, line_reference.
"""

import math

import numpy as np

from heisconvex import HVec, Point3, exp_h, group_mul
from heisconvex.sets import PROBE_CHUNK, bbox_diameter, uniform_points


def reference_probes(K, n, seed):
    """Yield up to n probes (p, v, q), given up after 1000 + 400 n candidates.

    A stalled rejection sampler raises when the chunk it starts is needed.
    """
    log_lo = math.log(1e-3)
    log_hi = math.log(max(bbox_diameter(K.bbox), 2e-3))
    max_tries = 1000 + 400 * n
    tries = produced = 0
    chunk = 0
    while produced < n and tries < max_tries:
        rng = np.random.default_rng([seed, 0xF, chunk])
        chunk += 1
        points = uniform_points(K, PROBE_CHUNK, rng).tolist()
        phi = rng.uniform(0.0, 2.0 * math.pi, PROBE_CHUNK)
        mag = np.exp(rng.uniform(log_lo, log_hi, PROBE_CHUNK))
        steps = zip((mag * np.cos(phi)).tolist(), (mag * np.sin(phi)).tolist())
        for p, v in zip(points, steps):
            if produced == n or tries == max_tries:
                return
            tries += 1
            p, v = Point3(*p), HVec(*v)
            q = group_mul(p, exp_h(v))
            if K.contains(q):
                produced += 1
                yield p, v, q
