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

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import AlphaCollision, MissingLevels, TauOutOfRange, ZeroConditioningCell
from .pipelines import LatentOutcomeModel, _left_quantile_index, _state_effects
from .prob import MarkovKernel, ProbTensor, VarSpace
from .tolerances import LABEL_TOL


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


def _check_collisions(alpha2d: np.ndarray) -> None:
    k = alpha2d.shape[0]
    for i in range(k):
        for j in range(i + 1, k):
            if np.abs(alpha2d[i] - alpha2d[j]).max() < LABEL_TOL:
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
    diagnostics: dict = field(default_factory=dict, compare=False)

    @property
    def w_marginal(self) -> np.ndarray:
        return self.base.wx_joint.values.sum(axis=1)

    def state_at(self, tau: float, coordinate: int = 0) -> int:
        """Flat latent index at quantile rank ``tau`` of the labeled law."""
        if not 0.0 < tau <= 1.0:
            raise TauOutOfRange(f"quantile rank {tau} outside (0, 1]")
        alpha2d = self.alpha.reshape(self.alpha.shape[0], -1)
        order = np.argsort(alpha2d[:, coordinate], kind="stable")
        idx = _left_quantile_index(self.w_marginal[order], tau)
        return int(order[idx])

    def beta(self) -> np.ndarray:
        """Per-state effect E[Y(1) - Y(0) | W = state], base ordering."""
        return _state_effects(self.base.arm_laws, self.w_marginal,
                              self.base.y_space.level_values())

    def beta_at_value(self, w_value: float) -> float:
        """Unbiased rule: effect in the stratum whose true value is ``w_value``."""
        alpha2d = self.alpha.reshape(self.alpha.shape[0], -1)
        hits = np.where(np.abs(alpha2d - np.atleast_1d(w_value)).max(axis=1)
                        < LABEL_TOL)[0]
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
        w_old, x = base.wx_joint.axes
        w = VarSpace(w_old.name, w_old.cardinality, tuple(float(a) for a in sorted_alpha))
        base = replace(base, wx_joint=ProbTensor((w, x), base.wx_joint.values),
                       z_given_w=MarkovKernel(base.z_given_w.target, (w,),
                                              base.z_given_w.values))
    return LabeledLatentModel(base, rule, sorted_alpha, diagnostics={"mode": "unbiased"})


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
        if np.any(np.diff(s) < LABEL_TOL):
            raise AlphaCollision(
                f"coordinate {c} alpha values are not strictly separated")
    labeled = LabeledLatentModel(m, rule, alpha, diagnostics={"mode": "monotone"})
    # resolve the grid eagerly so TauOutOfRange surfaces here
    labeled.diagnostics["tau_states"] = {
        float(t): labeled.state_at(t) for t in taus}
    return labeled


def confounder_effects(m: LatentOutcomeModel | LabeledLatentModel,
                       x1: int, w: int) -> ProbTensor:
    """Joint law of the doubly-intervened outcome Y(x1, w) and the factual
    treatment: ``f(y, x2) = f(y | x1, w) * f(x2)``.

    The outcome law is the arm law of ``x1`` within the clamped latent
    stratum, ``f(Y(x1) = y | W = w) = sum_x f(Y(x1) = y, W = w, X = x) / f(w)``,
    the same formula for every design.  For the auxiliary design the arm
    laws integrate the extra proxy over its law within each latent stratum,
    which renders the intervened display when the extra proxy sits
    downstream of the latent state (as in the builtin auxiliary figures
    with W -> V).
    """
    base = m.base if isinstance(m, LabeledLatentModel) else m
    w_x = base.wx_joint.values
    w_mass = w_x[w].sum()
    if w_mass <= 0:
        raise ZeroConditioningCell(f"latent state W={w} has zero probability")
    y_cond = base.arm_laws[x1, :, w].sum(axis=1) / w_mass
    y = base.y_space
    arm = VarSpace(f"{y.name}({x1},{w})", y.cardinality, y.levels)
    return ProbTensor.build((arm, base.wx_joint.axes[1]), np.outer(y_cond, w_x.sum(axis=0)))
