"""Regression objects and the ordinary least squares estimate.

Index convention (encoded once in build_regressors and pinned by tests against
hand enumeration, since an off-by-one here silently corrupts every event
frequency downstream): the design matrix stacks the lag vectors
Y_n, ..., Y_{N-1} as rows, paired with targets y_{n+1}, ..., y_N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .process import Trajectory


@dataclass(frozen=True, eq=False)
class RegressorSet:
    """Stacked regression data: design rows Y_t^T = [y_t ... y_{t-n+1}],
    targets y_{t+1}, and the normal matrix design^T design."""

    design: np.ndarray
    target: np.ndarray
    normal_matrix: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.design, dtype=float).copy()
        t = np.asarray(self.target, dtype=float).copy()
        m = np.asarray(self.normal_matrix, dtype=float).copy()
        if d.ndim != 2 or t.shape != (d.shape[0],) or m.shape != (d.shape[1], d.shape[1]):
            raise ValueError("inconsistent regressor shapes")
        for arr in (d, t, m):
            arr.flags.writeable = False
        object.__setattr__(self, "design", d)
        object.__setattr__(self, "target", t)
        object.__setattr__(self, "normal_matrix", m)

    @property
    def rows(self) -> int:
        return int(self.design.shape[0])

    @property
    def order(self) -> int:
        return int(self.design.shape[1])


def build_regressors(traj: Trajectory) -> RegressorSet:
    """Assemble the design matrix and targets of the trajectory's own order.

    A trajectory has horizon > order, so there is at least one row.
    """
    obs = traj.observed
    windows = np.lib.stride_tricks.sliding_window_view(obs[: traj.horizon - 1], traj.order)
    design = np.ascontiguousarray(windows[:, ::-1])
    target = obs[traj.order:].copy()
    return RegressorSet(design=design, target=target, normal_matrix=design.T @ design)


def ols_fit(reg: RegressorSet) -> np.ndarray:
    """Least-squares coefficient estimate via an orthogonal (SVD) factorisation,
    never an explicit inverse.

    The normal-equation route squares the condition number, so it is kept out
    of the production path and used only as a test oracle.  A rank-deficient
    design yields the minimum-norm solution.
    """
    return np.linalg.lstsq(reg.design, reg.target, rcond=None)[0]
