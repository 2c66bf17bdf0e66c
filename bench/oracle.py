"""Exact effect references from the structural model, and the op checks.

Every reference comes from one cross-world joint of the enumeration oracle
(``scm.counterfactual_joint`` over the treatment arms, keeping ``W`` and
``X``), independently of the identification code being timed.  Each check
returns a list of mismatch descriptions; an empty list is a pass.
"""

from __future__ import annotations

import numpy as np

import triproxy.scm as scm

EFFECT_TOL = 1e-6       # identified effects vs the oracle
SPECTRAL_TOL = 1e-7     # recovered factors vs their forward construction
COVER_TOL = 1e-7        # slack on bounds covering the oracle ATT/ATU
CLI_TOL = 1e-9          # CLI report vs the same call made in-process


def oracle_effects(m) -> dict:
    """ATE, ATT, ATU, potential-outcome pmfs, per-state CATE and the CDF of
    the stratum effect, all from one exact cross-world joint."""
    joint = scm.counterfactual_joint(m, ("X",), outcome="Y", keep=("W", "X"))
    arms = [scm.arm_label("Y", (x,)) for x in (0, 1)]
    y = m["Y"].space.level_values()
    # (Y(0), Y(1), W, X) in that order
    v = joint.reorder((arms[0], arms[1], "W", "X")).values
    y0 = v.sum(axis=1)                      # (Y(0), W, X)
    y1 = v.sum(axis=0)                      # (Y(1), W, X)
    wx = v.sum(axis=(0, 1))
    w, fx = wx.sum(axis=1), wx.sum(axis=0)
    pot_y = np.stack([y0.sum(axis=(1, 2)), y1.sum(axis=(1, 2))], axis=1)
    by_x = [a.sum(axis=1) / fx for a in (y0, y1)]
    cate = y @ (y1.sum(axis=2) / w) - y @ (y0.sum(axis=2) / w)
    order = np.argsort(cate, kind="stable")
    s = cate[order]
    keep = np.concatenate([[True], np.diff(s) > 1e-12])
    group = np.cumsum(keep) - 1
    masses = np.zeros(int(keep.sum()))
    np.add.at(masses, group, w[order])
    return {"ate": float(cate @ w),
            "att": float(y @ (by_x[1][:, 1] - by_x[0][:, 1])),
            "atu": float(y @ (by_x[1][:, 0] - by_x[0][:, 0])),
            "pot_y": pot_y, "cate": cate, "w": w,
            "beta_atoms": s[keep], "beta_cdf": np.cumsum(masses)}


def _cdf_at(atoms, cdf, b) -> float:
    i = int(np.searchsorted(atoms, b + EFFECT_TOL, side="left")) - 1
    return 0.0 if i < 0 else float(cdf[i])


def check_effects(rep, truth: dict) -> list[str]:
    """An :class:`EstimandReport` against :func:`oracle_effects`."""
    bad = []
    for key in ("ate", "att", "atu"):
        gap = abs(getattr(rep, key) - truth[key])
        if not gap <= EFFECT_TOL:
            bad.append(f"{key} off by {gap:.3e}")
    gap = float(np.max(np.abs(rep.pot_y - truth["pot_y"])))
    if not gap <= EFFECT_TOL:
        bad.append(f"pot_y off by {gap:.3e}")
    for b in np.union1d(rep.beta_atoms, truth["beta_atoms"]):
        gap = abs(_cdf_at(rep.beta_atoms, rep.beta_cdf, b)
                  - _cdf_at(truth["beta_atoms"], truth["beta_cdf"], b))
        if not gap <= EFFECT_TOL:
            bad.append(f"beta CDF off by {gap:.3e} at {b:.6g}")
            break
    return bad


def check_cover(interval, value: float, what: str) -> list[str]:
    lo, hi = interval
    if lo - COVER_TOL <= value <= hi + COVER_TOL:
        return []
    return [f"{what} {value:.6g} outside [{lo:.6g}, {hi:.6g}]"]


def check_close(got, want, what: str, tol: float) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{what} shape {got.shape} != {want.shape}"]
    gap = float(np.max(np.abs(got - want))) if got.size else 0.0
    return [] if gap <= tol else [f"{what} off by {gap:.3e}"]
