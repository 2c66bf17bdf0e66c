"""Two-stage identification pipelines and treatment-effect estimands.

Each ``identify_*`` function consumes an exact observed joint distribution
(a :class:`~triproxy.prob.ProbTensor` with conventional axis names) and a
latent cardinality, runs the spectral factorization of
:mod:`triproxy.spectral` once, on the appropriate conditional slice, and
assembles a :class:`LatentOutcomeModel` holding the arm laws
``f(Y(x1) = y, W = w, X = x)`` and the latent/treatment joint ``f(w, x)``.
From those every downstream quantity — potential-outcome laws, ATE/ATT/ATU,
quantile effects, and the distribution of the stratum effect β(W) — is a
finite sum, computed by :func:`estimands`.

The designs differ in which variable is the third proxy, and share two
stages.  The outcome, conditional-treatment and auxiliary designs run one
reference-stratum stage: factorize in the most probable stratum, transfer
``f(z | w)`` to the others and solve each stratum's ``f(w | v)`` through it.
Every stratum is expressed in the reference stratum's latent labels, so no
pipeline matches labels across strata.  The outcome and
conditional-treatment designs then solve each stratum's signal kernel; the
treatment and auxiliary designs run one deconvolution of an observed joint
through ``f(z | w)``.  They differ again only where the arm laws are
assembled: the auxiliary design integrates the extra proxy V within each
latent stratum and factual treatment.

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
from .spectral import HsFactors, HsOptions, canonical_order, hs_decompose

COND_GUARD = 1e8
PROJECTION_TOL = 1e-4
ASSEMBLY_MASS_TOL = 1e-8    # mass of the assembled f(y, x) may be off by this
STRATUM_COMPLETENESS_LABEL = "stratum-wise completeness of the proxy system"


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


def _require_axes(joint: ProbTensor, names: tuple[str, ...]) -> None:
    missing = set(names) - set(joint.names)
    if missing:
        raise UnknownAxis(f"joint is missing axes {sorted(missing)}")


def _solve(design: np.ndarray, rhs: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    """Least-squares solution of ``design @ sol = rhs`` and the design's
    condition number, from one SVD.  The guard keeps every singular value far
    above lstsq's cutoff, so this is the solution lstsq returns."""
    u, sv, vh = np.linalg.svd(design, full_matrices=False)
    cond = np.inf if sv[-1] <= 0 else float(sv[0] / sv[-1])
    if cond > COND_GUARD:
        raise SolveIllConditioned(
            f"{what} has condition number {cond:.3e} above {COND_GUARD:.0e}",
            assumption=STRATUM_COMPLETENESS_LABEL)
    return vh.T @ ((u.T @ rhs) / sv[:, None]), cond


def _project_columns(mat: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    """Project column-stochastic candidates onto the simplex (clip + renorm)."""
    clipped = np.clip(mat, 0.0, None)
    sums = clipped.sum(axis=0, keepdims=True)
    if np.any(sums <= 0):
        raise NonStochasticSolution(f"{what} has an all-nonpositive column")
    projected = clipped / sums
    dist = float(np.abs(projected - mat).max())
    if dist > PROJECTION_TOL:
        raise NonStochasticSolution(
            f"{what} is {dist:.3e} away from the stochastic simplex")
    return projected, dist


def _deconvolve(z_given_w: np.ndarray, arr: np.ndarray,
                what: str) -> tuple[np.ndarray, float, float]:
    """Latent joint ``out`` with ``arr[a, z, ...] = sum_w f(z | w) out[a, w, ...]``
    (axis 1 of ``arr`` is the proxy Z), round-off negatives clipped.

    Returns ``(out, projection distance, solve condition number)``.  An
    exact joint that factors through the latent states gives a solution with
    no negative entries and unit mass; one with entries below
    ``-PROJECTION_TOL``, or whose clipped mass is off by more than the
    tensor layer's ``MASS_TOL``, is refused.
    """
    zs = np.moveaxis(arr, 1, 0)
    sol, cond = _solve(z_given_w, zs.reshape(zs.shape[0], -1), "shared proxy kernel")
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


DISTINCTNESS_BY_DESIGN = {
    "outcome": "HS Assumption 4 / Assumption 3: distinct outcome-kernel columns",
    "treatment": "HS Assumption 4 / Assumption 4: distinct treatment-kernel columns",
    "cond-treatment": ("HS Assumption 4 / Assumption 6: distinct treatment-kernel "
                       "columns within outcome strata"),
    "auxiliary": ("HS Assumption 4 / Assumption 8: distinct auxiliary-signal columns "
                  "in the reference treatment stratum"),
}


def _hs_options(opts: HsOptions | None, k: int, design: str | None = None) -> HsOptions:
    """``opts`` (defaults when None) at latent dimension ``k``, naming the
    distinctness assumption of ``design`` when one is given."""
    label = {} if design is None else {"distinctness_label": DISTINCTNESS_BY_DESIGN[design]}
    return replace(opts or HsOptions(latent_dim=k), latent_dim=k, **label)


def _diag_entry(f: HsFactors) -> dict:
    d = f.diagnostics
    return {"singular_ratio": d.singular_ratio, "eigen_gap": d.eigen_gap,
            "max_imag": d.max_imag, "lstsq_residual": d.lstsq_residual,
            "clipped_mass": d.clipped_mass}


def _reference_stratum(joint: ProbTensor, k: int, opts: HsOptions | None,
                       strata: str, signal: str, design: str):
    """The latent stage shared by the outcome, conditional-treatment and
    auxiliary designs.  Factorize the (Z, signal, V) law in the most probable
    level of ``strata`` only, carry its proxy kernel f(z | w) to every other
    level, and solve that level's f(w | v) through it by one linear solve.
    Only the reference level needs distinct signal columns; every other level
    needs a well-conditioned solve.

    Returns ``(factors, w_given_v, vws, projection distance, diagnostics)``:
    the reference level's factors, whose ``z_given_w`` is the shared kernel;
    f(w | v, s) of shape ``(k, |V|, |strata|)``; and f(v, w, s).
    """
    f_s = marginalize(joint, set(joint.names) - {strata}).values
    s_ref = int(np.argmax(f_s))
    diag: dict = {"design": design, "reference_stratum": s_ref, "stages": f_s.size}

    fac = hs_decompose(_slice_joint(joint, ("Z", signal, "V"), {strata: s_ref}),
                       _hs_options(opts, k, design))
    diag[f"hs_{strata.lower()}{s_ref}"] = _diag_entry(fac)
    w_given_v = np.empty(fac.w_given_v.shape + (f_s.size,))
    w_given_v[:, :, s_ref] = fac.w_given_v
    proj = 0.0
    for s in range(f_s.size):
        if s == s_ref:
            continue
        where = f"{strata}={s}"
        z_given_v = _slice_joint(joint, ("Z", "V"), {strata: s})
        sol, _ = _solve(fac.z_given_w, z_given_v / z_given_v.sum(axis=0, keepdims=True),
                        f"shared proxy kernel ({where})")
        w_given_v[:, :, s], d = _project_columns(sol, f"latent posterior ({where})")
        proj = max(proj, d)

    # stochastic columns of f(w | v, s) keep this joint on the simplex
    f_vs = marginalize(joint, set(joint.names) - {"V", strata}).reorder(("V", strata)).values
    vws = np.einsum("wvs,vs->vws", w_given_v, f_vs)
    return fac, w_given_v, vws, proj, diag


def _signal_given_w(joint: ProbTensor, strata: str, signal: str, fac: HsFactors,
                    w_given_v: np.ndarray, s_ref: int) -> tuple[np.ndarray, float]:
    """f(signal | w, s) of shape ``(|signal|, k, |strata|)``: the reference
    level's from its factorization, every other level's by the trilinear
    solve (per signal level, the (z, v) slice is linear in the k unknown
    latent weights).  Returns it with the projection distance."""
    z_given_w = fac.z_given_w
    k, _, n_s = w_given_v.shape
    signal_given_w = np.empty((joint.axis(signal).cardinality, k, n_s))
    signal_given_w[:, :, s_ref] = fac.c_given_w
    proj = 0.0
    for s in range(n_s):
        if s == s_ref:
            continue
        where = f"{strata}={s}"
        design_mat = (z_given_w[:, None, :] * w_given_v[:, :, s].T).reshape(-1, k)
        czv = _slice_joint(joint, (signal, "Z", "V"), {strata: s})
        czv = czv / czv.sum(axis=(0, 1), keepdims=True)      # condition on v
        sol, _ = _solve(design_mat, czv.reshape(czv.shape[0], -1).T,
                        f"signal design matrix ({where})")
        signal_given_w[:, :, s], d = _project_columns(sol.T, f"signal kernel ({where})")
        proj = max(proj, d)
    return signal_given_w, proj


def _latent_model(joint: ProbTensor, design: str, y_given: np.ndarray,
                  wx: np.ndarray, z_given_w: np.ndarray, diag: dict,
                  vwx: np.ndarray | None = None) -> LatentOutcomeModel:
    """Validate the recovered laws and assemble the arm laws.  ``y_given``
    is f(y | w, x), or for the auxiliary design f(y | w, v, x), which is
    integrated over ``vwx`` = f(v, w, x) within each latent stratum and
    factual treatment."""
    w, x, y = _latent_space(z_given_w.shape[1]), joint.axis("X"), joint.axis("Y")
    wx_joint = ProbTensor.build((w, x), wx)
    if design == "auxiliary":
        v = joint.axis("V")
        laws = np.einsum("ywvt,vwx->tywx", MarkovKernel.build(y, (w, v, x), y_given).values,
                         ProbTensor.build((v, w, x), vwx).values)
    else:
        laws = np.einsum("ywt,wx->tywx", MarkovKernel.build(y, (w, x), y_given).values,
                         wx_joint.values)
    return LatentOutcomeModel(
        arm_laws=laws, y_space=y, wx_joint=wx_joint,
        z_given_w=MarkovKernel.build(joint.axis("Z"), (w,), z_given_w),
        design=design, diagnostics=diag)


# ---------------------------------------------------------------------------
# the four pipelines


def identify_outcome_proxy(joint: ProbTensor, k: int,
                           opts: HsOptions | None = None) -> LatentOutcomeModel:
    """Outcome-proxy design: the reference-stratum stage over treatment
    strata, then each stratum's outcome kernel by the trilinear solve."""
    _require_axes(joint, ("Y", "Z", "V", "X"))
    fac, w_given_vx, vwx, proj, diag = _reference_stratum(joint, k, opts, "X", "Y", "outcome")
    y_given_wx, signal_proj = _signal_given_w(joint, "X", "Y", fac, w_given_vx,
                                              diag["reference_stratum"])
    diag["projection_distance"] = max(proj, signal_proj)
    return _latent_model(joint, "outcome", y_given_wx, vwx.sum(axis=0), fac.z_given_w, diag)


def identify_treatment_proxy(joint: ProbTensor, k: int,
                             opts: HsOptions | None = None) -> LatentOutcomeModel:
    """Treatment-proxy design: one global factorization with the treatment as
    the signal, then per-(y, x) deconvolution of the outcome law."""
    _require_axes(joint, ("Y", "Z", "X", "V"))
    fac = hs_decompose(_slice_joint(joint, ("Z", "X", "V"), {}),
                       _hs_options(opts, k, "treatment"))
    ywx, proj, cond = _deconvolve(fac.z_given_w, _slice_joint(joint, ("Y", "Z", "X"), {}),
                                  "outcome/latent/treatment joint")
    diag = {"design": "treatment", "hs": _diag_entry(fac),
            "projection_distance": proj, "solve_condition": cond}
    return _latent_model(joint, "treatment", _normalize_slices(ywx), ywx.sum(axis=0),
                         fac.z_given_w, diag)


def identify_cond_treatment_proxy(joint: ProbTensor, k: int,
                                  opts: HsOptions | None = None) -> LatentOutcomeModel:
    """Conditional-treatment design: the reference-stratum stage over outcome
    strata, each stratum's treatment kernel by the trilinear solve, and the
    (y, x, w) joint reassembled."""
    _require_axes(joint, ("X", "Z", "V", "Y"))
    fac, w_given_vy, vwy, proj, diag = _reference_stratum(
        joint, k, opts, "Y", "X", "cond-treatment")
    x_given_wy, signal_proj = _signal_given_w(joint, "Y", "X", fac, w_given_vy,
                                              diag["reference_stratum"])
    diag["projection_distance"] = max(proj, signal_proj)
    yxw = np.einsum("xwy,wy->yxw", x_given_wy, vwy.sum(axis=0))
    return _latent_model(joint, "cond-treatment", _normalize_slices(yxw.transpose(0, 2, 1)),
                         yxw.sum(axis=0).T, fac.z_given_w, diag)


def identify_auxiliary_proxy(joint: ProbTensor, k: int,
                             opts: HsOptions | None = None) -> LatentOutcomeModel:
    """Auxiliary-proxy design: the reference-stratum stage over treatment
    strata with C as the signal, per-(y, v, x) deconvolution, and the
    V-integrated potential-outcome display."""
    _require_axes(joint, ("Y", "C", "Z", "V", "X"))
    fac, _, vwx, proj, diag = _reference_stratum(joint, k, opts, "X", "C", "auxiliary")
    ywvx, neg, cond = _deconvolve(fac.z_given_w, _slice_joint(joint, ("Y", "Z", "V", "X"), {}),
                                  "outcome/latent joint")
    diag["projection_distance"] = max(proj, neg)
    diag["solve_condition"] = cond
    return _latent_model(joint, "auxiliary", _normalize_slices(ywvx),
                         ywvx.sum(axis=2).sum(axis=0), fac.z_given_w, diag, vwx)


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
