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

Both variants run their design's identification stage (see
:data:`~triproxy.graphs.DESIGNS`) within each arm, and never align the
arms: :func:`~triproxy.spectral.hs_decompose` on (Z, signal, V) given
X = x, then one deconvolution of the arm's second-stage law through that
arm's own ``f(z | w)``.  A latent dimension the arm's joint does not
factor through leaves negative or missing mass there and is refused.  The
outcome variant is one ``V`` level.

Extremes are taken only over latent states carrying real mass — zero-mass
spectral artifacts must not widen the bounds.

Whether rank invariance actually holds in the data-generating process is
not testable from observables, so every reported interval is conditional on
the assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._np import np
from .errors import NonBinaryTreatment, ZeroConditioningCell
from .graphs import DESIGNS
from .pipelines import _deconvolve, _require_axes, _slice_joint
from .prob import ProbTensor, marginalize
from .spectral import HsOptions, hs_decompose
from .tolerances import MASS_TOL, POINT_IDENTIFIED_TOL


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
    return joint.axis("Y").level_values()


def _bounds(joint: ProbTensor, k: int, design: str) -> BoundsReport:
    """Per-arm identification stage of ``design``, then per-``v`` intervals
    from the extremes of the supported stratum means, averaged over V."""
    d = DESIGNS[design]
    _require_axes(joint, d.axes)
    y_levels = _check_binary_numeric(joint)
    cells = d.second_stage[2:]                           # (X,) or (V, X)

    f_vx = marginalize(joint, set(joint.names) - set(cells)).reorder(cells).values
    f_vx = f_vx.reshape(-1, 2)
    if f_vx.min() <= MASS_TOL:
        cell = np.unravel_index(int(np.argmin(f_vx)), f_vx.shape)[-len(cells):]
        names = ", ".join(f"{a}={i}" for a, i in zip(cells, cell))
        raise ZeroConditioningCell(f"cell ({names}) has no mass")
    v_given_x = f_vx / f_vx.sum(axis=0, keepdims=True)

    diag: dict = {"design": f"bounds-{design}"}
    mins = np.empty(f_vx.shape)
    maxs = np.empty(f_vx.shape)
    for x in (0, 1):
        fac = hs_decompose(_slice_joint(joint, ("Z", d.signal, "V"), {"X": x}),
                           HsOptions(latent_dim=k))
        ywv, _, cond = _deconvolve(fac.z_given_w,
                                   _slice_joint(joint, d.second_stage[:-1], {"X": x}),
                                   f"outcome/latent joint (X={x})")
        ywv = ywv.reshape(ywv.shape[:2] + (-1,))         # one V level without V
        stratum_means = []
        for v in range(f_vx.shape[0]):
            wv = ywv[:, :, v].sum(axis=0)                # latent mass within v
            total = wv.sum()
            if total <= MASS_TOL:
                raise ZeroConditioningCell(f"cell (V={v}, X={x}) lost all mass")
            keep = wv / total > MASS_TOL
            means = y_levels @ (ywv[:, keep, v] / wv[keep])
            mins[v, x], maxs[v, x] = float(means.min()), float(means.max())
            stratum_means.append(sorted(means.tolist()))
        diag[f"arm{x}"] = {"eigen_gap": fac.diagnostics.eigen_gap,
                           "singular_ratio": fac.diagnostics.singular_ratio,
                           "solve_condition": cond, "stratum_means": stratum_means}

    per_v_lower = mins[:, 1] - mins[:, 0]
    per_v_upper = maxs[:, 1] - maxs[:, 0]
    lo = np.minimum(per_v_lower, per_v_upper)
    hi = np.maximum(per_v_lower, per_v_upper)
    att = (float(lo @ v_given_x[:, 1]), float(hi @ v_given_x[:, 1]))
    atu = (float(lo @ v_given_x[:, 0]), float(hi @ v_given_x[:, 0]))
    v_marg = f_vx.sum(axis=1)
    per_v = "V" in cells
    return BoundsReport(
        s_lower=float(lo @ v_marg), s_upper=float(hi @ v_marg),
        att_interval=att, atu_interval=atu,
        point_identified=float(np.abs(hi - lo).max()) <= POINT_IDENTIFIED_TOL,
        per_v_lower=lo if per_v else None, per_v_upper=hi if per_v else None,
        diagnostics=diag)


def bounds_outcome_proxy(joint: ProbTensor, k: int) -> BoundsReport:
    """Sharp bounds from per-arm identification of a (Y, Z, V, X) joint,
    the outcome being the signal; no cross-arm latent alignment."""
    return _bounds(joint, k, "outcome")


def bounds_auxiliary_proxy(joint: ProbTensor, k: int) -> BoundsReport:
    """Per-``v`` rank-invariance bounds from per-arm identification with an
    auxiliary signal C, averaged into ATT/ATU intervals."""
    return _bounds(joint, k, "auxiliary")
