"""A fixed reference loop that tracks how fast the host runs right now.

On two vCPUs of a shared Xeon host, the host's speed drifted by a third
and more within minutes as other tenants loaded it: the same ``risk``
command took 2.2 s in one minute and 3.4 s in the next, in CPU time as
well as in wall time. Timing this loop next to every command and
dividing gives the command's time in units of the loop's time, which
keeps the command's own cost and drops most of the host's drift.

The loop is the benchmark's own code and never calls ``ibrisk``, so a
change to the program cannot move it. It does, in about equal parts,
the three kinds of work the workloads spend their time on, because the
host's drift slows them by different amounts:

* numpy gathers, scatters and a sort over 40k edges of 1000 nodes (the
  cascade kernel at N=1000 has about 40k edges);
* a pass in the interpreter over a dict of 60k ``(lender, borrower)``
  loans (the rescue payouts walk the loan dict once per seed);
* parsing 8k comma-separated lines into per-lender totals (snapshot and
  trade input).

Over 28-second windows of one process, the middle half of the window
medians spread, in raw seconds and in reference units: ``risk`` 0.27
and 0.06, ``iso`` 0.10 and 0.06, ``ingest`` 0.07 and 0.06. Each part
alone tracked some workloads and not others.
"""
from __future__ import annotations

import time

import numpy as np

_N_EDGES = 40_000
_N_NODES = 1_000
_N_LOANS = 60_000
_N_LINES = 8_000


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20140618)
        self.source = rng.integers(_N_NODES, size=_N_EDGES)
        self.target = rng.integers(_N_NODES, size=_N_EDGES)
        self.weight = rng.random(_N_EDGES)
        self.loans = dict(zip(zip(rng.integers(_N_NODES, size=_N_LOANS).tolist(),
                                  rng.integers(_N_NODES, size=_N_LOANS).tolist()),
                              rng.random(_N_LOANS).tolist()))
        self.lines = [f"b{s},b{t},{w:.6f},2024-01-01"
                      for s, t, w in zip(self.source[:_N_LINES].tolist(),
                                         self.target[:_N_LINES].tolist(),
                                         self.weight[:_N_LINES].tolist())]

    def _once(self) -> None:
        distress = np.full(_N_NODES, 0.01)
        for _ in range(8):
            impact = np.zeros(_N_NODES)
            np.add.at(impact, self.target, self.weight * distress[self.source])
            distress = np.minimum(1.0, distress + impact / (1.0 + impact.max()))
        np.argsort(self.weight * distress[self.target], kind="stable")
        exposure = 0.0
        for (_, borrower), amount in self.loans.items():
            if borrower == 17:
                exposure += amount
        totals: dict[str, float] = {}
        for line in self.lines:
            lender, _, amount, _ = line.split(",")
            totals[lender] = totals.get(lender, 0.0) + float(amount)

    def reading(self, seconds: float) -> float:
        """Mean seconds of one pass, over passes run back to back for ``seconds``."""
        start = time.perf_counter()
        passes = 0
        while True:
            self._once()
            passes += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                return elapsed / passes
