"""Composite evaluation of TQ functions in the quasi-velocity chart.

In the chart (q, v) of a frame, a function f(q, u) becomes the composite
f(q, X(q)^T v).  Jets of the composite are assembled by evaluating the frame
coefficients' jets along the base directions (one call of the frame's fused
kernel) and multiplying them into the v-leaves, so no matrix inverse and no
symbolic manipulation is involved.  An optional constant fibre probe
direction yields jets of the velocity partials df/du^i (needed for
momentum-type sections and derived Lagrangians), read off with
:meth:`TaylorValue.extract`.

The coefficient jets come from the numpy binding of the kernel over the
same per-coordinate leaves as the v-leaves (0-d arrays at a single point),
so a chart point rounds like the tree walk over those leaves.
"""

from __future__ import annotations

import numpy as np

from .jets import TaylorValue

__all__ = ["QvChartPoint"]


class QvChartPoint:
    """Leaf TaylorValues at a chart point along chart directions.

    dirs is a sequence of (dq, dv) pairs, both of full length n (use zero
    padding for C-restricted directions).  With probe=True an extra constant
    fibre direction is reserved; eval_fibre_partial then returns the jet of
    df/du^i along the real directions.
    """

    def __init__(self, frame, q, v, dirs, probe=False):
        self.frame = frame
        q = np.asarray(q, dtype=float)
        v = np.asarray(v, dtype=float)
        self.q = q
        self.v = v
        self.ndirs = len(dirs)
        self.k = self.ndirs + (1 if probe else 0)
        self.probe = probe
        k = self.k
        n = frame.n
        dirs = [(np.broadcast_to(np.asarray(dq, dtype=float), q.shape),
                 np.broadcast_to(np.asarray(dv, dtype=float), q.shape))
                for dq, dv in dirs]
        qdirs = [[d[0][..., i] for i in range(n)] for d in dirs]
        vdirs = [[d[1][..., i] for i in range(n)] for d in dirs]
        if probe:
            qdirs.append([0.0] * n)
            vdirs.append([0.0] * n)
        qcols = [q[..., i] for i in range(n)]
        self.q_tvs = {name: TaylorValue.variable(
            qcols[i], tuple(d[i] for d in qdirs), k)
            for i, name in enumerate(frame.coords)}
        self.v_tvs = [TaylorValue.variable(
            v[..., i], tuple(d[i] for d in vdirs), k) for i in range(n)]
        # the probe moves no coordinate, so its base direction is zero
        slots = frame.coefficient_slots(qcols, qdirs)
        nslots = 1 << k
        tvs = [TaylorValue(k, slots[s:s + nslots])
               for s in range(0, len(slots), nslots)]
        self.coeff_tvs = [tvs[i * n:(i + 1) * n] for i in range(n)]
        self.u_tvs = []
        for j in range(n):
            acc = self.v_tvs[0] * self.coeff_tvs[0][j]
            for i in range(1, n):
                acc = acc + self.v_tvs[i] * self.coeff_tvs[i][j]
            self.u_tvs.append(acc)

    def _env(self, L, u_tvs):
        env = dict(self.q_tvs)
        for name, tv in zip(L.vel_names, u_tvs):
            env[name] = tv
        return env

    def eval(self, L):
        """TaylorValue of the composite along the real directions."""
        out = L.taylor_env(self._env(L, self.u_tvs))
        out = self._as_tv(out, self.k)
        if self.probe:
            out = out.drop(1 << self.ndirs)
        return out

    def eval_fibre_partial(self, L, i):
        """TaylorValue of dL/du^i (as a chart function) along the directions."""
        if not self.probe:
            raise ValueError("chart point was built without a probe direction")
        bit = 1 << self.ndirs
        delta = TaylorValue.variable(0.0, (0.0,) * self.ndirs + (1.0,), self.k)
        u_tvs = list(self.u_tvs)
        u_tvs[i] = u_tvs[i] + delta
        out = self._as_tv(L.taylor_env(self._env(L, u_tvs)), self.k)
        return out.extract(bit)

    def _as_tv(self, out, k):
        if isinstance(out, TaylorValue):
            return out
        return TaylorValue.constant(out, k)
