"""Resolving the latent-state labeling of an identified outcome model.

The spectral step pins down every latent-conditional law only up to a
permutation of the hidden states.  When the proxy ``Z`` carries numeric
levels and a known location functional ``M`` (mean or median) of
``f(z | w)`` recovers information about ``w``, the permutation can be
resolved in two regimes:

* **unbiased** — ``M[f(z | w)]`` equals the true value of ``w`` exactly, so
  each recovered state is assigned its alpha value as its label;
* **monotone** — ``M[f(z | w)]`` is only a strictly increasing (unknown)
  transform of ``w``, so absolute values are meaningless but quantile ranks
  of the latent distribution transfer: the state at quantile ``tau`` of the
  recovered alpha law is the state at quantile ``tau`` of the true law.

Multi-coordinate latent states use product coding: the flat state index
enumerates a coordinate grid in C order, and ``Z`` carries one block of
levels per coordinate, so alpha is computed blockwise.

A monotone-decreasing garbling is indistinguishable from an increasing one
given data alone; labels then come out order-reversed.  This is a
documented limitation of the monotone regime, not a detectable error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AlphaCollision, MissingLevels, TauOutOfRange, ZeroConditioningCell
from .pipelines import LatentOutcomeModel, _arm_laws, _state_effects
from .prob import MarkovKernel, ProbTensor, VarSpace


@dataclass(frozen=True)
class RelabelRule:
    """How to turn proxy columns into latent labels."""

    functional: str = "mean"        # "mean" | "median"
    mode: str = "unbiased"          # "unbiased" | "monotone"
    coordinates: tuple[int, ...] | None = None  # product coding of W, if any

    def __post_init__(self):
        if self.functional not in ("mean", "median"):
            raise ValueError(f"unknown functional {self.functional!r}")
        if self.mode not in ("unbiased", "monotone"):
            raise ValueError(f"unknown mode {self.mode!r}")


def _left_quantile_index(pmf: np.ndarray, tau: float) -> int:
    if not 0.0 < tau <= 1.0:
        raise TauOutOfRange(f"quantile rank {tau} outside (0, 1]")
    cdf = np.cumsum(pmf)
    return int(min(np.searchsorted(cdf, tau - 1e-12, side="left"), pmf.size - 1))


def _location(levels: np.ndarray, pmf: np.ndarray, functional: str) -> float:
    if functional == "mean":
        return float(levels @ pmf)
    return float(levels[_left_quantile_index(pmf, 0.5)])


def compute_alpha(z_given_w: MarkovKernel, rule: RelabelRule) -> np.ndarray:
    """Per-latent-state location of the proxy law, per coordinate.

    Returns shape ``(k,)`` for scalar latent states and ``(k, n_coords)``
    for product-coded ones.
    """
    z = z_given_w.target
    if z.levels is None:
        raise MissingLevels(f"proxy {z.name!r} carries no numeric levels")
    levels = z.level_values()
    cols = z_given_w.matrix
    k = cols.shape[1]

    if rule.coordinates is None:
        alpha = np.array([_location(levels, cols[:, w], rule.functional)
                          for w in range(k)])
        _check_collisions(alpha.reshape(-1, 1))
        return alpha

    coords = tuple(rule.coordinates)
    if int(np.prod(coords)) != k:
        raise AlphaCollision(
            f"coordinate structure {coords} does not code {k} latent states")
    if levels.size % len(coords) != 0:
        raise MissingLevels("proxy levels do not split into coordinate blocks")
    block = levels.size // len(coords)
    alpha = np.empty((k, len(coords)))
    for w in range(k):
        for c in range(len(coords)):
            sl = slice(c * block, (c + 1) * block)
            pmf = cols[sl, w]
            mass = pmf.sum()
            if mass <= 0:
                raise MissingLevels(f"coordinate block {c} of state {w} is empty")
            alpha[w, c] = _location(levels[sl], pmf / mass, rule.functional)
    _check_collisions(alpha)
    return alpha


def _check_collisions(alpha2d: np.ndarray, tol: float = 1e-9) -> None:
    k = alpha2d.shape[0]
    for i in range(k):
        for j in range(i + 1, k):
            if np.abs(alpha2d[i] - alpha2d[j]).max() < tol:
                raise AlphaCollision(
                    f"latent states {i} and {j} have indistinguishable proxy "
                    f"locations {alpha2d[i].tolist()}")


@dataclass(frozen=True)
class LabeledLatentModel:
    """An outcome model whose latent axis carries resolved labels.

    Under the unbiased rule the latent axis is reordered by alpha and the
    latent space's levels are the alpha values themselves.  Under the
    monotone rule only quantile addressing is exposed: ``state_at(tau)``
    maps a quantile rank to the flat latent index holding it.
    """

    base: LatentOutcomeModel
    rule: RelabelRule
    alpha: np.ndarray
    order: np.ndarray                      # alpha-sorted latent permutation
    diagnostics: dict = field(default_factory=dict, compare=False)

    @property
    def w_marginal(self) -> np.ndarray:
        return self.base.wx_joint.values.sum(axis=1)

    def state_at(self, tau: float, coordinate: int = 0) -> int:
        """Flat latent index at quantile rank ``tau`` of the labeled law."""
        alpha2d = self.alpha.reshape(self.alpha.shape[0], -1)
        order = np.argsort(alpha2d[:, coordinate], kind="stable")
        idx = _left_quantile_index(self.w_marginal[order], tau)
        return int(order[idx])

    def beta(self) -> np.ndarray:
        """Per-state effect E[Y(1) - Y(0) | W = state], base ordering."""
        return _state_effects(_arm_laws(self.base), self.w_marginal,
                              self.base.y_given_wx.target.level_values())

    def beta_at_value(self, w_value: float) -> float:
        """Unbiased rule: effect in the stratum whose true value is ``w_value``."""
        alpha2d = self.alpha.reshape(self.alpha.shape[0], -1)
        hits = np.where(np.abs(alpha2d - np.atleast_1d(w_value)).max(axis=1)
                        < 1e-9)[0]
        if hits.size != 1:
            raise AlphaCollision(f"no unique latent state labeled {w_value}")
        return float(self.beta()[hits[0]])

    def beta_at_quantile(self, tau: float, coordinate: int = 0) -> float:
        return float(self.beta()[self.state_at(tau, coordinate)])


def relabel_unbiased(m: LatentOutcomeModel, rule: RelabelRule) -> LabeledLatentModel:
    """Assign each latent state its exact location value and sort by it."""
    if rule.mode != "unbiased":
        raise ValueError("rule.mode must be 'unbiased'")
    alpha = compute_alpha(m.z_given_w, rule)
    alpha2d = alpha.reshape(alpha.shape[0], -1)
    order = np.lexsort(alpha2d.T[::-1])
    base = m.permuted(order)
    sorted_alpha = alpha[order]
    if alpha.ndim == 1:
        w_old = base.wx_joint.axes[0]
        w_new = VarSpace(w_old.name, w_old.cardinality,
                         tuple(float(a) for a in sorted_alpha))
        base = _with_latent_space(base, w_new)
    return LabeledLatentModel(base, rule, sorted_alpha, np.arange(alpha.shape[0]),
                              diagnostics={"mode": "unbiased"})


def relabel_monotone(m: LatentOutcomeModel, rule: RelabelRule,
                     taus: tuple[float, ...] = (0.25, 0.5, 0.75)) -> LabeledLatentModel:
    """Expose quantile-rank addressing of the latent states.

    Alpha values are sorted per coordinate (strictness enforced); each
    requested ``tau`` resolves to a latent state through the left-continuous
    quantile function of the recovered latent marginal.
    """
    if rule.mode != "monotone":
        raise ValueError("rule.mode must be 'monotone'")
    alpha = compute_alpha(m.z_given_w, rule)
    alpha2d = alpha.reshape(alpha.shape[0], -1)
    for c in range(alpha2d.shape[1]):
        s = np.sort(alpha2d[:, c])
        if np.any(np.diff(s) < 1e-9):
            raise AlphaCollision(
                f"coordinate {c} alpha values are not strictly separated")
    labeled = LabeledLatentModel(m, rule, alpha, np.lexsort(alpha2d.T[::-1]),
                                 diagnostics={"mode": "monotone"})
    # resolve the grid eagerly so TauOutOfRange surfaces here
    labeled.diagnostics["tau_states"] = {
        float(t): labeled.state_at(t) for t in taus}
    return labeled


def _with_latent_space(m: LatentOutcomeModel, w_new: VarSpace) -> LatentOutcomeModel:
    from dataclasses import replace

    def swap_kernel(k: MarkovKernel | None) -> MarkovKernel | None:
        if k is None:
            return None
        given = tuple(w_new if g.name == w_new.name else g for g in k.given)
        return MarkovKernel(k.target, given, k.values)

    def swap_tensor(t: ProbTensor | None) -> ProbTensor | None:
        if t is None:
            return None
        axes = tuple(w_new if a.name == w_new.name else a for a in t.axes)
        return ProbTensor(axes, t.values)

    return replace(m, y_given_wx=swap_kernel(m.y_given_wx),
                   wx_joint=swap_tensor(m.wx_joint),
                   z_given_w=swap_kernel(m.z_given_w),
                   y_given_wvx=swap_kernel(m.y_given_wvx),
                   vwx_joint=swap_tensor(m.vwx_joint))


def confounder_effects(m: LatentOutcomeModel | LabeledLatentModel,
                       x1: int, w: int) -> ProbTensor:
    """Joint law of the doubly-intervened outcome Y(x1, w) and the factual
    treatment: ``f(y, x2) = f(y | x1, w) * f(x2)``.

    For the auxiliary design the outcome law integrates the extra proxy
    over its law within the clamped latent stratum,
    ``f(y | x1, w) = sum_v f(y | w, v, x1) f(v | w)``, which renders the
    intervened display when the extra proxy sits downstream of the latent
    state (as in the builtin auxiliary figures with W -> V).
    """
    base = m.base if isinstance(m, LabeledLatentModel) else m
    f_x = base.wx_joint.values.sum(axis=0)
    if base.design == "auxiliary" and base.y_given_wvx is not None:
        vw = base.vwx_joint.values.sum(axis=2)               # f(v, w)
        w_mass = vw[:, w].sum()
        if w_mass <= 0:
            raise ZeroConditioningCell(f"latent state W={w} has zero probability")
        v_given_w = vw[:, w] / w_mass
        y_cond = base.y_given_wvx.values[:, w, :, x1] @ v_given_w
        y_vals = np.outer(y_cond, f_x)
    else:
        y_cond = base.y_given_wx.values[:, w, x1]
        y_vals = np.outer(y_cond, f_x)
    y = base.y_given_wx.target
    arm = VarSpace(f"{y.name}({x1},{w})", y.cardinality, y.levels)
    return ProbTensor.build((arm, base.wx_joint.axes[1]), y_vals)
