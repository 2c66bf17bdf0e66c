"""Identification pipelines and treatment-effect estimands.

Each ``identify_*`` function consumes an exact observed joint distribution
(a :class:`~triproxy.prob.ProbTensor` with conventional axis names) and a
latent cardinality, and assembles a :class:`LatentOutcomeModel` holding the
arm laws ``f(Y(x1) = y, W = w, X = x)`` and the latent/treatment joint
``f(w, x)``.  From those every downstream quantity — potential-outcome laws,
ATE/ATT/ATU, quantile effects, and the distribution of the stratum effect
β(W) — is a finite sum, computed by :func:`estimands`.

The designs differ only in which variable is the third proxy (the outcome,
the treatment, the treatment within outcome strata, or an auxiliary C), and
they all run the same three steps:

1. *Factorize once.*  :func:`~triproxy.spectral.hs_decompose` splits the
   (Z, signal, V) law in the most probable level of the design's stratum
   axis; the treatment design has no stratum axis and uses the whole joint.
   Only that level needs distinct signal columns.  The factorization fixes
   the proxy kernel ``f(z | w)`` shared by every stratum.
2. *Deconvolve once.*  Each design's proposition gives Z ⊥ (Y, X) | W, and
   Z ⊥ (Y, V, X) | W for the auxiliary design, so
   ``f(y, z, x) = Σ_w f(z | w) f(y, w, x)``: one linear solve through
   ``f(z | w)`` recovers the latent joint of every stratum at once.  No
   stratum is solved on its own, and no labels are matched across strata.
3. *Assemble* the arm laws: each arm integrates ``f(y | w, v, x1)`` over
   ``f(v, w, x)`` within each latent state and factual treatment.  A design
   without V is one V level.

Positivity is required: a latent cell with mass in one treatment arm and
none in another has no identified outcome law there, and is refused.

The latent ordering inside every assembled model is canonical (latent
states sorted lexicographically by their ``f(z | w)`` column), so reports
are invariant — bit for bit — under relabelings of the generating model's
hidden state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    MissingLevels,
    NonBinaryTreatment,
    NonStochasticSolution,
    SolveIllConditioned,
    UnknownAxis,
    ZeroConditioningCell,
)
from .prob import MASS_TOL, MarkovKernel, ProbTensor, VarSpace, marginalize
from .spectral import (COMPLETENESS_LABEL, HsFactors, HsOptions, canonical_order,
                       hs_decompose)

COND_GUARD = 1e8
PROJECTION_TOL = 1e-4
ASSEMBLY_MASS_TOL = 1e-8    # mass of the assembled f(y, x) may be off by this


def _latent_space(k: int) -> VarSpace:
    return VarSpace("W", k, tuple(float(i) for i in range(k)))


@dataclass(frozen=True)
class LatentOutcomeModel:
    """The arm laws of every design plus the latent/treatment joint."""

    arm_laws: np.ndarray                # f(Y(x1) = y, W = w, X = x), (n_x, |Y|, k, n_x)
    y_space: VarSpace                   # the outcome Y
    wx_joint: ProbTensor                # f(w, x) over (W, X)
    z_given_w: MarkovKernel             # shared proxy kernel f(z | w)
    design: str = "outcome"
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        # one layout, so that sums over the laws round the same way
        laws = np.ascontiguousarray(self.arm_laws, dtype=float)
        laws.setflags(write=False)
        object.__setattr__(self, "arm_laws", laws)
        mass = self.observed_yx().sum()
        if abs(mass - 1.0) > ASSEMBLY_MASS_TOL:
            raise NonStochasticSolution("assembled outcome/treatment law has "
                                        f"mass {mass:.12f}")

    def observed_yx(self) -> np.ndarray:
        """The implied observed joint f(y, x): each arm at its factual level."""
        return np.einsum("xywx->yx", self.arm_laws)

    def permuted(self, perm: np.ndarray) -> "LatentOutcomeModel":
        """Same model with latent states relabeled by ``perm``."""
        return replace(
            self, arm_laws=self.arm_laws[:, :, perm],
            wx_joint=ProbTensor(self.wx_joint.axes, self.wx_joint.values[perm]),
            z_given_w=MarkovKernel(self.z_given_w.target, self.z_given_w.given,
                                   self.z_given_w.values[:, perm]))

    def canonicalized(self) -> "LatentOutcomeModel":
        return self.permuted(canonical_order(self.z_given_w.values))


# ---------------------------------------------------------------------------
# shared stages


#: design -> (stratum axis or None, signal, second-stage axes)
DESIGNS = {
    "outcome": ("X", "Y", ("Y", "Z", "X")),
    "treatment": (None, "X", ("Y", "Z", "X")),
    "cond-treatment": ("Y", "X", ("Y", "Z", "X")),
    "auxiliary": ("X", "C", ("Y", "Z", "V", "X")),
}

DISTINCTNESS_BY_DESIGN = {
    "outcome": ("HS Assumption 4 / Assumption 3: distinct outcome-kernel columns "
                "in the reference treatment stratum"),
    "treatment": "HS Assumption 4 / Assumption 4: distinct treatment-kernel columns",
    "cond-treatment": ("HS Assumption 4 / Assumption 6: distinct treatment-kernel "
                       "columns in the reference outcome stratum"),
    "auxiliary": ("HS Assumption 4 / Assumption 8: distinct auxiliary-signal columns "
                  "in the reference treatment stratum"),
}


def _require_axes(joint: ProbTensor, names: tuple[str, ...]) -> None:
    missing = set(names) - set(joint.names)
    if missing:
        raise UnknownAxis(f"joint is missing axes {sorted(missing)}")


def _deconvolve(z_given_w: np.ndarray, arr: np.ndarray,
                what: str) -> tuple[np.ndarray, float, float]:
    """Latent joint ``out`` with ``arr[a, z, ...] = sum_w f(z | w) out[a, w, ...]``
    (axis 1 of ``arr`` is the proxy Z), round-off negatives clipped.

    Returns ``(out, projection distance, condition number of f(z | w))``.
    The least-squares solve takes one SVD of ``f(z | w)``; the condition
    guard keeps every singular value far above lstsq's cutoff, so this is
    the solution lstsq returns.  An exact joint that factors through the
    latent states gives a solution with no negative entries and unit mass;
    one with entries below ``-PROJECTION_TOL``, or whose clipped mass is off
    by more than the tensor layer's ``MASS_TOL``, is refused.
    """
    u, sv, vh = np.linalg.svd(z_given_w, full_matrices=False)
    cond = np.inf if sv[-1] <= 0 else float(sv[0] / sv[-1])
    if cond > COND_GUARD:
        raise SolveIllConditioned(
            f"shared proxy kernel f(z | w) has condition number {cond:.3e} "
            f"above {COND_GUARD:.0e}", assumption=COMPLETENESS_LABEL)
    zs = np.moveaxis(arr, 1, 0)
    sol = vh.T @ ((u.T @ zs.reshape(zs.shape[0], -1)) / sv[:, None])
    out = np.moveaxis(sol.reshape((-1,) + zs.shape[1:]), 0, 1)
    neg = float(-min(out.min(), 0.0))
    if neg > PROJECTION_TOL:
        raise NonStochasticSolution(f"{what} has negative mass {neg:.3e}")
    out = np.clip(out, 0.0, None)
    mass = float(out.sum())
    if abs(mass - 1.0) > MASS_TOL:
        raise NonStochasticSolution(
            f"{what} has total mass {mass!r}, not within {MASS_TOL} of 1")
    return out, neg, cond


def _normalize_slices(joint: np.ndarray) -> np.ndarray:
    """Conditional law along axis 0; zero-mass slices become uniform (they
    carry no weight downstream but must stay valid pmfs)."""
    sums = joint.sum(axis=0, keepdims=True)
    out = np.where(sums > 0, joint / np.where(sums > 0, sums, 1.0),
                   1.0 / joint.shape[0])
    return out


def _slice_joint(joint: ProbTensor, axes: tuple[str, ...], fix: dict) -> np.ndarray:
    """Conditional joint over ``axes`` (in order) given exact values ``fix``:
    ``restrict`` (dividing by the mass even with nothing fixed), then
    ``marginalize`` and ``reorder``, on the bare array."""
    values = joint.values[tuple(fix.get(n, slice(None)) for n in joint.names)]
    mass = values.sum()
    if mass <= 0:
        raise ZeroConditioningCell(f"stratum {fix} has zero probability")
    values = values / mass
    kept = [n for n in joint.names if n not in fix]
    values = values.sum(axis=tuple(i for i, n in enumerate(kept) if n not in axes))
    kept = [n for n in kept if n in axes]
    return values.transpose([kept.index(a) for a in axes])


def _diag_entry(f: HsFactors) -> dict:
    d = f.diagnostics
    return {"singular_ratio": d.singular_ratio, "eigen_gap": d.eigen_gap,
            "max_imag": d.max_imag, "lstsq_residual": d.lstsq_residual,
            "clipped_mass": d.clipped_mass}


def _require_positivity(cell_x: ProbTensor) -> None:
    """Refuse a latent cell that has mass in one treatment arm (last axis)
    but none in another: its outcome law in that arm is not identified."""
    empty = cell_x.values <= MASS_TOL
    bad = np.argwhere(empty.any(axis=-1) & ~empty.all(axis=-1))
    if bad.size:
        cell = tuple(int(i) for i in bad[0])
        x = int(np.argmax(empty[cell]))
        names = ", ".join(f"{a.name}={i}" for a, i in zip(cell_x.axes, cell))
        raise ZeroConditioningCell(
            f"latent cell ({names}) has mass {cell_x.values[cell + (x,)]:.3e} <= "
            f"{MASS_TOL} at X={x} but not in every treatment arm (positivity)")


def _latent_model(joint: ProbTensor, design: str, latent: np.ndarray,
                  z_given_w: np.ndarray, diag: dict) -> LatentOutcomeModel:
    """Validate the deconvolved latent joint and assemble the arm laws.
    ``latent`` is f(y, w, x), or f(y, w, v, x) for the auxiliary design; a
    design without V is one V level, and each arm integrates f(y | w, v, x1)
    over f(v, w, x) within each latent state and factual treatment."""
    y, x = joint.axis("Y"), joint.axis("X")
    cell = (_latent_space(z_given_w.shape[1]),) + tuple(    # (W,) or (W, V)
        joint.axis(n) for n in DESIGNS[design][2][2:-1])
    cell_x = ProbTensor.build(cell + (x,), latent.sum(axis=0))
    _require_positivity(cell_x)
    y_given = MarkovKernel.build(y, cell + (x,), _normalize_slices(latent)).values
    wvx = cell_x.values.reshape(cell[0].cardinality, -1, x.cardinality)
    laws = np.einsum("ywvt,wvx->tywx", y_given.reshape((y.cardinality,) + wvx.shape), wvx)
    return LatentOutcomeModel(
        arm_laws=laws, y_space=y, wx_joint=ProbTensor((cell[0], x), wvx.sum(axis=1)),
        z_given_w=MarkovKernel.build(joint.axis("Z"), cell[:1], z_given_w),
        design=design, diagnostics=diag)


def _identify(joint: ProbTensor, k: int, seed: int, design: str) -> LatentOutcomeModel:
    """Factorize once, in the reference stratum; deconvolve once, through
    the shared f(z | w); assemble."""
    strata, signal, axes = DESIGNS[design]
    _require_axes(joint, ("Z", signal, "V") + axes)
    fix = {}
    if strata is not None:
        f_s = marginalize(joint, set(joint.names) - {strata}).values
        fix = {strata: int(np.argmax(f_s))}
    fac = hs_decompose(_slice_joint(joint, ("Z", signal, "V"), fix),
                       HsOptions(latent_dim=k, seed=seed,
                                 distinctness_label=DISTINCTNESS_BY_DESIGN[design]))
    latent, neg, cond = _deconvolve(fac.z_given_w, _slice_joint(joint, axes, {}),
                                    "latent joint")
    diag = {"design": design, "reference_stratum": fix, "hs": _diag_entry(fac),
            "projection_distance": neg, "solve_condition": cond}
    return _latent_model(joint, design, latent, fac.z_given_w, diag)


# ---------------------------------------------------------------------------
# the four pipelines


def identify_outcome_proxy(joint: ProbTensor, k: int, seed: int = 0) -> LatentOutcomeModel:
    """Outcome-proxy design: the outcome is the signal, factorized in the
    reference treatment stratum."""
    return _identify(joint, k, seed, "outcome")


def identify_treatment_proxy(joint: ProbTensor, k: int, seed: int = 0) -> LatentOutcomeModel:
    """Treatment-proxy design: the treatment is the signal, factorized on the
    whole joint."""
    return _identify(joint, k, seed, "treatment")


def identify_cond_treatment_proxy(joint: ProbTensor, k: int,
                                  seed: int = 0) -> LatentOutcomeModel:
    """Conditional-treatment design: the treatment is the signal, factorized
    in the reference outcome stratum."""
    return _identify(joint, k, seed, "cond-treatment")


def identify_auxiliary_proxy(joint: ProbTensor, k: int, seed: int = 0) -> LatentOutcomeModel:
    """Auxiliary-proxy design: C is the signal, factorized in the reference
    treatment stratum, and V is integrated into the arm laws."""
    return _identify(joint, k, seed, "auxiliary")


# ---------------------------------------------------------------------------
# estimands


def _left_quantile_index(pmf: np.ndarray, taus):
    """Index of the left ``taus``-quantile of ``pmf``; a CDF value within
    1e-12 of tau reaches it."""
    cdf = np.cumsum(pmf)
    at = np.asarray(taus, dtype=float) - 1e-12
    return np.minimum(np.searchsorted(cdf, at, side="left"), pmf.size - 1)


def _state_effects(laws: np.ndarray, w_marginal: np.ndarray,
                   y_levels: np.ndarray) -> np.ndarray:
    """Per-latent-state effect E[Y(1) - Y(0) | W = w] from the arm laws."""
    cond_w = laws.sum(axis=3) / w_marginal                   # (x1, y, w)
    return y_levels @ (cond_w[1] - cond_w[0])


def potential_joint(m: LatentOutcomeModel, x1: int) -> ProbTensor:
    """Joint law of the potential outcome under treatment level ``x1``
    together with the latent state and the factual treatment."""
    m = m.canonicalized()
    y = m.y_space
    arm = VarSpace(f"{y.name}({x1})", y.cardinality, y.levels)
    return ProbTensor.build((arm,) + m.wx_joint.axes, m.arm_laws[x1])


@dataclass(frozen=True)
class EstimandReport:
    """All reordering-invariant summaries of a latent outcome model."""

    y_levels: tuple[float, ...]
    pot_y_given_x: np.ndarray      # f(Y(x1) = y | X = x2), shape (|Y|, n_x, n_x)
    pot_y: np.ndarray              # f(Y(x1) = y), shape (|Y|, n_x)
    ate: float
    att: float
    atu: float
    qte_taus: tuple[float, ...]
    qte: np.ndarray                # per-tau quantile treatment effects
    beta: np.ndarray               # per-latent-state effect, canonical order
    w_marginal: np.ndarray
    w_given_x: np.ndarray          # shape (k, n_x)
    beta_atoms: np.ndarray         # sorted distinct effect values
    beta_cdf: np.ndarray           # F_{beta(W)} at the atoms
    beta_cdf_given_x: np.ndarray   # shape (n_atoms, n_x)
    var_beta: float
    diagnostics: dict = field(default_factory=dict, compare=False)


DEFAULT_TAUS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def estimands(m: LatentOutcomeModel,
              taus: tuple[float, ...] = DEFAULT_TAUS) -> EstimandReport:
    m = m.canonicalized()
    y_space = m.y_space
    if y_space.levels is None:
        raise MissingLevels(f"outcome {y_space.name!r} carries no numeric levels")
    y_levels = y_space.level_values()
    n_x = m.wx_joint.values.shape[1]
    if n_x != 2:
        raise NonBinaryTreatment(f"effect summaries need a binary treatment, "
                                 f"got {n_x} levels")

    laws = m.arm_laws                                        # (x1, y, w, x2)
    w_x = m.wx_joint.values
    f_x = w_x.sum(axis=0)
    w_marg = w_x.sum(axis=1)
    w_given_x = w_x / f_x

    pot_y_given_x = laws.sum(axis=2).transpose(1, 0, 2) / f_x   # (|Y|, x1, x2)
    pot_y = laws.sum(axis=(2, 3)).T                          # (|Y|, x1)
    beta = _state_effects(laws, w_marg, y_levels)
    ate = float(y_levels @ (pot_y[:, 1] - pot_y[:, 0]))
    att = float(y_levels @ (pot_y_given_x[:, 1, 1] - pot_y_given_x[:, 0, 1]))
    atu = float(y_levels @ (pot_y_given_x[:, 1, 0] - pot_y_given_x[:, 0, 0]))

    q = [y_levels[_left_quantile_index(pot_y[:, x], taus)] for x in (0, 1)]
    qte = q[1] - q[0]

    order = np.argsort(beta, kind="stable")
    sorted_beta = beta[order]
    keep = np.concatenate([[True], np.diff(sorted_beta) > 1e-12])
    atoms = sorted_beta[keep]
    group = np.cumsum(keep) - 1
    masses = np.zeros(atoms.size)
    np.add.at(masses, group, w_marg[order])
    masses_x = np.zeros((atoms.size, n_x))
    np.add.at(masses_x, group, w_given_x[order])
    beta_cdf = np.cumsum(masses)
    beta_cdf_given_x = np.cumsum(masses_x, axis=0)
    var_beta = float((beta - ate) ** 2 @ w_marg)

    return EstimandReport(
        y_levels=tuple(float(v) for v in y_levels),
        pot_y_given_x=pot_y_given_x, pot_y=pot_y,
        ate=ate, att=att, atu=atu,
        qte_taus=tuple(taus), qte=qte,
        beta=beta, w_marginal=w_marg, w_given_x=w_given_x,
        beta_atoms=atoms, beta_cdf=beta_cdf, beta_cdf_given_x=beta_cdf_given_x,
        var_beta=var_beta, diagnostics=dict(m.diagnostics))
