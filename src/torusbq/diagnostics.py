"""Blow-up monitors: first-passage stopping rules over the trajectory table.

* tau_R fires when |grad u|_inf exceeds R;
* Gamma_R (2D only, where the scalar vorticity w = -d2 u1 + d1 u2 closes on
  itself with no vortex stretching) fires when |w|_{L^2} + |w|_{L^4} +
  int |grad w|_{L^2} ds (plus the control budget int |h|_{H0} ds in
  controlled runs) exceeds R; the integral is the trajectory table's
  int_grad_w_h column, written once per row.

Each monitor names the columns it watches; solver.run, stopped by it, then
computes them.  The energy budget is run's energy_residual column.  The
log-Gronwall quantities of the 2D no-blow-up argument and the independent
vorticity stepper are test oracles (tests/oracles.py), not library code: a
study evaluates them along a path through run's observers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solver import TrajectoryRecord


#: stopping-rule kind -> the table columns whose sum it watches
RULE_COLUMNS = {"tau_R": ("linf_grad_u",), "gamma_R": ("l2_w", "l4_w", "int_grad_w_h")}


@dataclass
class StoppingRule:
    """First-passage monitor over a trajectory record; two kinds.

    kind "tau_R" watches |grad u|_inf; "gamma_R" watches |w|_{L^2} +
    |w|_{L^4} + int (|grad w|_{L^2} + |h|_{H0}) ds, whose integral is the
    table column int_grad_w_h, written once per row by solver.run.  gamma_R
    is 2D only: run refuses it on a 3D grid, where w is not a scalar and its
    columns are NaN.  fires reads the columns only at the last row.
    Thresholds are monotone: a larger R never fires earlier on the same path.
    A NaN threshold is refused, since no value exceeds it; +inf never fires.
    """

    kind: str
    threshold: float

    def __post_init__(self):
        if self.kind not in RULE_COLUMNS:
            raise ValueError(f"unknown stopping rule kind {self.kind!r}")
        if np.isnan(self.threshold):
            raise ValueError(f"{self.kind} threshold must not be NaN")

    @property
    def columns(self) -> tuple:
        """The table columns whose sum the rule watches."""
        return RULE_COLUMNS[self.kind]

    def fires(self, record: TrajectoryRecord) -> bool:
        """Whether the functional exceeds the threshold at the last row."""
        last = sum(record.column(name)[-1] for name in self.columns)
        return bool(np.isfinite(last) and last > self.threshold)

    def describe(self) -> str:
        return f"{self.kind}(threshold={self.threshold:g})"
