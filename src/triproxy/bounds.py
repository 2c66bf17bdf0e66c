"""Partial identification of treatment effects under rank invariance.

When the proxy system is only complete within each treatment arm (for
instance because the treatment feeds the proxy), the latent factorizations
of the two arms cannot be aligned: each arm's latent states come back in
an arbitrary, arm-specific order.  Under rank invariance — the stratum
effect is monotone in the untreated stratum mean — the extremes of the
per-arm stratum means still bracket every stratum effect:

    s_upper = max_w m_1(w) - max_w m_0(w)
    s_lower = min_w m_1(w) - min_w m_0(w)

where ``m_x(w)`` is the mean outcome of arm ``x`` in (arm-specific) latent
stratum ``w``.  The ATT and ATU then lie in ``[s_lower, s_upper]``; a
degenerate interval signals point identification.  The auxiliary variant
conditions everything on an extra observed proxy ``V`` and averages the
per-``v`` intervals with the treated (untreated) law of ``V``.

Extremes are taken only over latent states carrying real mass — zero-mass
spectral artifacts must not widen the bounds.

Whether rank invariance actually holds in the data-generating process is
not testable from observables, so every reported interval is conditional on
the assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MissingLevels, NonBinaryTreatment, ZeroConditioningCell
from .pipelines import _deconvolve, _hs_options, _require_axes, _slice_joint
from .prob import MASS_TOL, ProbTensor, marginalize
from .spectral import HsOptions, hs_decompose

POINT_TOL = 1e-7
SUPPORT_TOL = 1e-10


@dataclass(frozen=True)
class BoundsReport:
    s_lower: float
    s_upper: float
    att_interval: tuple[float, float]
    atu_interval: tuple[float, float]
    point_identified: bool
    per_v_lower: np.ndarray | None = None
    per_v_upper: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict, compare=False)


def _check_binary_numeric(joint: ProbTensor) -> np.ndarray:
    if joint.axis("X").cardinality != 2:
        raise NonBinaryTreatment("rank-invariance bounds need a binary treatment")
    y = joint.axis("Y")
    if y.levels is None:
        raise MissingLevels(f"outcome {y.name!r} carries no numeric levels")
    return y.level_values()


def _stratum_means(y_given_w: np.ndarray, w_mass: np.ndarray,
                   y_levels: np.ndarray) -> np.ndarray:
    """Mean outcome per latent stratum, restricted to supported strata."""
    keep = w_mass > SUPPORT_TOL
    if not np.any(keep):
        raise ZeroConditioningCell("every latent stratum is mass-free")
    return y_levels @ y_given_w[:, keep]


def bounds_outcome_proxy(joint: ProbTensor, k: int,
                         opts: HsOptions | None = None) -> BoundsReport:
    """Sharp bounds from per-arm factorizations of a (Y, Z, V, X)
    joint; no cross-arm latent alignment is attempted."""
    _require_axes(joint, ("Y", "Z", "V", "X"))
    y_levels = _check_binary_numeric(joint)
    opts = _hs_options(opts, k)

    diag: dict = {"design": "bounds-outcome"}
    extremes = {}
    for x in (0, 1):
        fac = hs_decompose(_slice_joint(joint, ("Z", "Y", "V"), {"X": x}), opts)
        w_mass = fac.wv_joint.sum(axis=1)
        w_mass = w_mass / w_mass.sum()
        means = _stratum_means(fac.c_given_w, w_mass, y_levels)
        extremes[x] = (float(means.min()), float(means.max()))
        diag[f"arm{x}"] = {"eigen_gap": fac.diagnostics.eigen_gap,
                           "singular_ratio": fac.diagnostics.singular_ratio,
                           "stratum_means": sorted(means.tolist())}

    s_lower = extremes[1][0] - extremes[0][0]
    s_upper = extremes[1][1] - extremes[0][1]
    interval = (min(s_lower, s_upper), max(s_lower, s_upper))
    return BoundsReport(
        s_lower=interval[0], s_upper=interval[1],
        att_interval=interval, atu_interval=interval,
        point_identified=abs(interval[1] - interval[0]) <= POINT_TOL,
        diagnostics=diag)


def bounds_auxiliary_proxy(joint: ProbTensor, k: int,
                           opts: HsOptions | None = None) -> BoundsReport:
    """Per-``v`` rank-invariance bounds from per-arm factorizations with an
    auxiliary signal C, averaged into ATT/ATU intervals."""
    _require_axes(joint, ("Y", "C", "Z", "V", "X"))
    y_levels = _check_binary_numeric(joint)
    opts = _hs_options(opts, k)
    n_v = joint.axis("V").cardinality

    f_vx = marginalize(joint, set(joint.names) - {"V", "X"}).reorder(("V", "X")).values
    if f_vx.min() <= MASS_TOL:
        v, x = np.unravel_index(int(np.argmin(f_vx)), f_vx.shape)
        raise ZeroConditioningCell(f"cell (V={v}, X={x}) has no mass")
    v_given_x = f_vx / f_vx.sum(axis=0, keepdims=True)

    diag: dict = {"design": "bounds-auxiliary"}
    mins = np.empty((n_v, 2))
    maxs = np.empty((n_v, 2))
    for x in (0, 1):
        fac = hs_decompose(_slice_joint(joint, ("Z", "C", "V"), {"X": x}), opts)
        diag[f"arm{x}"] = {"eigen_gap": fac.diagnostics.eigen_gap,
                           "singular_ratio": fac.diagnostics.singular_ratio}
        ywv, _, _ = _deconvolve(fac.z_given_w,
                                _slice_joint(joint, ("Y", "Z", "V"), {"X": x}),
                                f"outcome/latent joint (X={x})")
        for v in range(n_v):
            wv = ywv[:, :, v].sum(axis=0)                    # latent mass within v
            total = wv.sum()
            if total <= SUPPORT_TOL:
                raise ZeroConditioningCell(f"cell (V={v}, X={x}) lost all mass")
            keep = wv / total > SUPPORT_TOL
            means = y_levels @ (ywv[:, keep, v] / wv[keep])
            mins[v, x], maxs[v, x] = float(means.min()), float(means.max())

    per_v_lower = mins[:, 1] - mins[:, 0]
    per_v_upper = maxs[:, 1] - maxs[:, 0]
    lo = np.minimum(per_v_lower, per_v_upper)
    hi = np.maximum(per_v_lower, per_v_upper)
    att = (float(lo @ v_given_x[:, 1]), float(hi @ v_given_x[:, 1]))
    atu = (float(lo @ v_given_x[:, 0]), float(hi @ v_given_x[:, 0]))
    v_marg = f_vx.sum(axis=1)
    s_lower, s_upper = float(lo @ v_marg), float(hi @ v_marg)
    return BoundsReport(
        s_lower=s_lower, s_upper=s_upper,
        att_interval=att, atu_interval=atu,
        point_identified=float(np.abs(hi - lo).max()) <= POINT_TOL,
        per_v_lower=lo, per_v_upper=hi, diagnostics=diag)

