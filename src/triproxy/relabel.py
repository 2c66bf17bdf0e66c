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

Either way each latent state gets one scalar label, the location of its
proxy column; a latent state is one categorical index, never a
product-coded grid.

A monotone-decreasing garbling is indistinguishable from an increasing one
given data alone; labels then come out order-reversed.  This is a
documented limitation of the monotone regime, not a detectable error.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._np import np
from .errors import AlphaCollision, TauOutOfRange
from .pipelines import LatentOutcomeModel, _left_quantile_index, _state_effects
from .prob import VarSpace
from .tolerances import LABEL_TOL


@dataclass(frozen=True)
class RelabelRule:
    """How to turn proxy columns into latent labels."""

    functional: str = "mean"        # "mean" | "median"
    mode: str = "unbiased"          # "unbiased" | "monotone"

    def __post_init__(self):
        if self.functional not in ("mean", "median"):
            raise ValueError(f"unknown functional {self.functional!r}")
        if self.mode not in ("unbiased", "monotone"):
            raise ValueError(f"unknown mode {self.mode!r}")


def _location(levels: np.ndarray, pmf: np.ndarray, functional: str) -> float:
    if functional == "mean":
        return float(levels @ pmf)
    return float(levels[_left_quantile_index(pmf, 0.5)])


def compute_alpha(z_space: VarSpace, z_given_w: np.ndarray, rule: RelabelRule) -> np.ndarray:
    """Per-latent-state location of the proxy law ``z_given_w``, shape
    ``(|Z|, k)``, over the levels of ``z_space``: shape ``(k,)``.  A proxy
    without numeric levels raises :class:`MissingLevels`; two states closer
    than ``LABEL_TOL`` raise :class:`AlphaCollision`."""
    levels = z_space.level_values()
    alpha = np.array([_location(levels, z_given_w[:, w], rule.functional)
                      for w in range(z_given_w.shape[1])])
    close = np.argwhere(np.triu(np.abs(alpha[:, None] - alpha) < LABEL_TOL, 1))
    if close.size:
        i, j = close[0]
        raise AlphaCollision(f"latent states {i} and {j} have indistinguishable proxy "
                             f"locations {[float(alpha[i])]}")
    return alpha


@dataclass(frozen=True)
class LabeledLatentModel:
    """An outcome model with one resolved label per latent state.

    The labels live in ``alpha`` alone, ``alpha[i]`` for state ``i`` of
    ``base``, whose latent axis keeps its state indices.  Under the unbiased
    rule ``base`` is sorted by alpha.  Under the monotone rule only quantile
    addressing is exposed: ``state_at(tau)`` maps a quantile rank to the
    flat latent index holding it.
    """

    base: LatentOutcomeModel
    alpha: np.ndarray

    @property
    def w_marginal(self) -> np.ndarray:
        return self.base.wx_joint.values.sum(axis=1)

    def state_at(self, tau: float) -> int:
        """Flat latent index at quantile rank ``tau`` of the labeled law."""
        if not 0.0 < tau <= 1.0:
            raise TauOutOfRange(f"quantile rank {tau} outside (0, 1]")
        order = np.argsort(self.alpha, kind="stable")
        idx = _left_quantile_index(self.w_marginal[order], tau)
        return int(order[idx])

    def beta(self) -> np.ndarray:
        """Per-state effect E[Y(1) - Y(0) | W = state], base ordering."""
        return _state_effects(self.base.arm_laws, self.w_marginal,
                              self.base.y_space.level_values())

    def beta_at_value(self, w_value: float) -> float:
        """Unbiased rule: effect in the stratum whose true value is ``w_value``."""
        hits = np.where(np.abs(self.alpha - w_value) < LABEL_TOL)[0]
        if hits.size != 1:
            raise AlphaCollision(f"no unique latent state labeled {w_value}")
        return float(self.beta()[hits[0]])

    def beta_at_quantile(self, tau: float) -> float:
        return float(self.beta()[self.state_at(tau)])


def relabel_unbiased(m: LatentOutcomeModel, rule: RelabelRule) -> LabeledLatentModel:
    """Assign each latent state its exact location value and sort by it."""
    if rule.mode != "unbiased":
        raise ValueError("rule.mode must be 'unbiased'")
    alpha = compute_alpha(m.z_space, m.z_given_w, rule)
    order = np.argsort(alpha, kind="stable")
    return LabeledLatentModel(m.permuted(order), alpha[order])


def relabel_monotone(m: LatentOutcomeModel, rule: RelabelRule) -> LabeledLatentModel:
    """Expose quantile-rank addressing of the latent states.

    :meth:`LabeledLatentModel.state_at` resolves a quantile rank ``tau`` to
    a latent state through the left-continuous quantile function of the
    recovered latent marginal, ordered by alpha (whose values
    :func:`compute_alpha` keeps apart).
    """
    if rule.mode != "monotone":
        raise ValueError("rule.mode must be 'monotone'")
    return LabeledLatentModel(m, compute_alpha(m.z_space, m.z_given_w, rule))

