"""Two-stage identification pipelines and treatment-effect estimands.

Each ``identify_*`` function consumes an exact observed joint distribution
(a :class:`~triproxy.prob.ProbTensor` with conventional axis names) and a
latent cardinality, runs the spectral factorization of
:mod:`triproxy.spectral` on the appropriate conditional slice, aligns every
stratum to one shared latent ordering, and assembles a
:class:`LatentOutcomeModel` holding the latent-conditional outcome law
``f(y | w, x)`` and the latent/treatment joint ``f(w, x)``.  From those two
objects every downstream quantity — potential-outcome laws, ATE/ATT/ATU,
quantile effects, and the distribution of the stratum effect β(W) — is a
finite sum, computed by :func:`estimands`.

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
)
from .prob import MarkovKernel, ProbTensor, VarSpace, condition, marginalize, restrict
from .spectral import HsFactors, HsOptions, canonical_order, hs_decompose, match_permutation

COND_GUARD = 1e8
PROJECTION_TOL = 1e-4
STRATUM_COMPLETENESS_LABEL = "stratum-wise completeness of the proxy system"


def _latent_space(k: int) -> VarSpace:
    return VarSpace("W", k, tuple(float(i) for i in range(k)))


@dataclass(frozen=True)
class LatentOutcomeModel:
    """Latent-conditional outcome law plus the latent/treatment joint."""

    y_given_wx: MarkovKernel            # f(y | w, x), given axes (W, X)
    wx_joint: ProbTensor                # f(w, x) over (W, X)
    z_given_w: MarkovKernel             # shared proxy kernel f(z | w)
    design: str = "outcome"
    alignment: str = "canonical-column-order"
    y_given_wvx: MarkovKernel | None = None   # auxiliary design only
    vwx_joint: ProbTensor | None = None       # auxiliary design only
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        yx = np.einsum("ywx,wx->yx", self.y_given_wx.values, self.wx_joint.values)
        if abs(yx.sum() - 1.0) > 1e-8:
            raise NonStochasticSolution("assembled outcome/treatment law has "
                                        f"mass {yx.sum():.12f}")

    @property
    def latent_dim(self) -> int:
        return self.wx_joint.values.shape[0]

    def observed_yx(self) -> np.ndarray:
        """The implied observed joint f(y, x)."""
        return np.einsum("ywx,wx->yx", self.y_given_wx.values, self.wx_joint.values)

    def permuted(self, perm: np.ndarray) -> "LatentOutcomeModel":
        """Same model with latent states relabeled by ``perm``."""
        aux_k = None if self.y_given_wvx is None else MarkovKernel(
            self.y_given_wvx.target, self.y_given_wvx.given,
            self.y_given_wvx.values[:, perm])
        aux_j = None if self.vwx_joint is None else ProbTensor(
            self.vwx_joint.axes, self.vwx_joint.values[:, perm])
        return replace(
            self,
            y_given_wx=MarkovKernel(self.y_given_wx.target, self.y_given_wx.given,
                                    self.y_given_wx.values[:, perm]),
            wx_joint=ProbTensor(self.wx_joint.axes, self.wx_joint.values[perm]),
            z_given_w=MarkovKernel(self.z_given_w.target, self.z_given_w.given,
                                   self.z_given_w.values[:, perm]),
            y_given_wvx=aux_k, vwx_joint=aux_j)

    def canonicalized(self) -> "LatentOutcomeModel":
        return self.permuted(canonical_order(self.z_given_w.values))


# ---------------------------------------------------------------------------
# shared solve helpers


def _require_axes(joint: ProbTensor, names: tuple[str, ...]) -> None:
    missing = set(names) - set(joint.names)
    if missing:
        raise UnknownAxis(f"joint is missing axes {sorted(missing)}")


def _guard_condition(mat: np.ndarray, what: str) -> float:
    sv = np.linalg.svd(mat, compute_uv=False)
    cond = np.inf if sv[-1] <= 0 else float(sv[0] / sv[-1])
    if cond > COND_GUARD:
        raise SolveIllConditioned(
            f"{what} has condition number {cond:.3e} above {COND_GUARD:.0e}",
            assumption=STRATUM_COMPLETENESS_LABEL)
    return cond


def _solve(design: np.ndarray, rhs: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    cond = _guard_condition(design, what)
    sol, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    return sol, cond


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


def _project_nonneg(arr: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    dist = float(-min(arr.min(), 0.0))
    if dist > PROJECTION_TOL:
        raise NonStochasticSolution(f"{what} has negative mass {dist:.3e}")
    return np.clip(arr, 0.0, None), dist


def _normalize_slices(joint: np.ndarray) -> np.ndarray:
    """Conditional law along axis 0; zero-mass slices become uniform (they
    carry no weight downstream but must stay valid pmfs)."""
    sums = joint.sum(axis=0, keepdims=True)
    out = np.where(sums > 0, joint / np.where(sums > 0, sums, 1.0),
                   1.0 / joint.shape[0])
    return out


def _slice_joint(joint: ProbTensor, axes: tuple[str, ...], fix: dict) -> np.ndarray:
    """Conditional joint over ``axes`` (in order) given exact values ``fix``."""
    t = restrict(joint, fix)
    t = marginalize(t, set(t.names) - set(axes))
    return t.reorder(axes).values


DISTINCTNESS_BY_DESIGN = {
    "outcome": "HS Assumption 4 / Assumption 3: distinct outcome-kernel columns",
    "treatment": "HS Assumption 4 / Assumption 4: distinct treatment-kernel columns",
    "cond-treatment": ("HS Assumption 4 / Assumption 6: distinct treatment-kernel "
                       "columns within outcome strata"),
    "auxiliary": "HS Assumption 4 / Assumption 8: distinct auxiliary-signal columns",
}


def _hs(joint_zcv: np.ndarray, k: int, opts: HsOptions | None,
        design: str | None = None) -> HsFactors:
    opts = opts or HsOptions(latent_dim=k)
    if opts.latent_dim != k:
        opts = replace(opts, latent_dim=k)
    if design in DISTINCTNESS_BY_DESIGN:
        opts = replace(opts, distinctness_label=DISTINCTNESS_BY_DESIGN[design])
    return hs_decompose(joint_zcv, opts)


def _diag_entry(f: HsFactors) -> dict:
    d = f.diagnostics
    return {"singular_ratio": d.singular_ratio, "eigen_gap": d.eigen_gap,
            "max_imag": d.max_imag, "lstsq_residual": d.lstsq_residual,
            "clipped_mass": d.clipped_mass}


# ---------------------------------------------------------------------------
# the four pipelines


def identify_outcome_proxy(joint: ProbTensor, k: int,
                           opts: HsOptions | None = None) -> LatentOutcomeModel:
    """Outcome-proxy design: factorize within a reference treatment stratum,
    carry the shared proxy kernel to the other strata by linear solves."""
    _require_axes(joint, ("Y", "Z", "V", "X"))
    f_x = marginalize(joint, set(joint.names) - {"X"}).values
    n_x = f_x.size
    x_ref = int(np.argmax(f_x))
    diag: dict = {"design": "outcome", "reference_stratum": x_ref}

    fac = _hs(_slice_joint(joint, ("Z", "Y", "V"), {"X": x_ref}), k, opts, "outcome")
    diag[f"hs_x{x_ref}"] = _diag_entry(fac)
    z_given_w = fac.z_given_w

    k_card = z_given_w.shape[1]
    y_card = joint.axis("Y").cardinality
    v_card = joint.axis("V").cardinality
    y_given_w = np.empty((y_card, k_card, n_x))
    w_given_v = np.empty((k_card, v_card, n_x))
    y_given_w[:, :, x_ref] = fac.c_given_w
    w_given_v[:, :, x_ref] = fac.w_given_v
    proj = 0.0

    for x in range(n_x):
        if x == x_ref:
            continue
        z_given_v = _slice_joint(joint, ("Z", "V"), {"X": x})
        z_given_v = z_given_v / z_given_v.sum(axis=0, keepdims=True)
        sol, _ = _solve(z_given_w, z_given_v, "shared proxy kernel")
        w_given_v[:, :, x], d = _project_columns(sol, f"latent posterior in stratum {x}")
        proj = max(proj, d)
        # trilinear stage: per outcome level, the (z, v) slice is linear in
        # the K unknown latent weights
        design = np.stack([np.outer(z_given_w[:, w], w_given_v[w, :, x]).ravel()
                           for w in range(k_card)], axis=1)
        yzv = _slice_joint(joint, ("Y", "Z", "V"), {"X": x})
        yzv = yzv / yzv.sum(axis=(0, 1), keepdims=True)      # condition on v
        sol, _ = _solve(design, yzv.reshape(y_card, -1).T,
                        "stratum outcome design matrix")
        y_given_w[:, :, x], d = _project_columns(sol.T, f"outcome kernel in stratum {x}")
        proj = max(proj, d)

    f_vx = marginalize(joint, set(joint.names) - {"V", "X"}).reorder(("V", "X")).values
    wx = np.einsum("wvx,vx->wx", w_given_v, f_vx)
    wx, d = _project_nonneg(wx, "latent/treatment joint")
    proj = max(proj, d)
    diag["projection_distance"] = proj

    return LatentOutcomeModel(
        y_given_wx=MarkovKernel.build(joint.axis("Y"), (_latent_space(k_card),
                                                        joint.axis("X")), y_given_w),
        wx_joint=ProbTensor.build((_latent_space(k_card), joint.axis("X")), wx),
        z_given_w=MarkovKernel.build(joint.axis("Z"), (_latent_space(k_card),),
                                     z_given_w),
        design="outcome", diagnostics=diag)


def identify_treatment_proxy(joint: ProbTensor, k: int,
                             opts: HsOptions | None = None) -> LatentOutcomeModel:
    """Treatment-proxy design: one global factorization with the treatment as
    the signal, then per-(y, x) deconvolution of the outcome law."""
    _require_axes(joint, ("Y", "Z", "X", "V"))
    fac = _hs(_slice_joint(joint, ("Z", "X", "V"), {}), k, opts, "treatment")
    diag = {"design": "treatment", "hs": _diag_entry(fac)}
    z_given_w = fac.z_given_w
    k_card = z_given_w.shape[1]

    yzx = _slice_joint(joint, ("Y", "Z", "X"), {})
    y_card, _, n_x = yzx.shape
    rhs = np.moveaxis(yzx, 1, 0).reshape(yzx.shape[1], -1)  # (|Z|, y*x)
    sol, cond = _solve(z_given_w, rhs, "shared proxy kernel")
    ywx = sol.reshape(k_card, y_card, n_x).transpose(1, 0, 2)  # f(y, w, x)
    ywx, proj = _project_nonneg(ywx, "outcome/latent/treatment joint")
    diag["projection_distance"] = proj
    diag["solve_condition"] = cond

    wx = ywx.sum(axis=0)
    y_given_wx = _normalize_slices(ywx)

    return LatentOutcomeModel(
        y_given_wx=MarkovKernel.build(joint.axis("Y"), (_latent_space(k_card),
                                                        joint.axis("X")), y_given_wx),
        wx_joint=ProbTensor.build((_latent_space(k_card), joint.axis("X")), wx),
        z_given_w=MarkovKernel.build(joint.axis("Z"), (_latent_space(k_card),),
                                     z_given_w),
        design="treatment", diagnostics=diag)


def identify_cond_treatment_proxy(joint: ProbTensor, k: int,
                                  opts: HsOptions | None = None) -> LatentOutcomeModel:
    """Conditional-treatment design: factorize within a reference outcome
    stratum, align the remaining outcome strata through the shared proxy
    kernel, and reassemble the (y, x, w) joint."""
    _require_axes(joint, ("X", "Z", "V", "Y"))
    f_y = marginalize(joint, set(joint.names) - {"Y"}).values
    n_y = f_y.size
    y_ref = int(np.argmax(f_y))
    diag: dict = {"design": "cond-treatment", "reference_stratum": y_ref,
                  "stages": 0}

    fac = _hs(_slice_joint(joint, ("Z", "X", "V"), {"Y": y_ref}), k, opts,
              "cond-treatment")
    diag[f"hs_y{y_ref}"] = _diag_entry(fac)
    diag["stages"] += 1
    z_given_w = fac.z_given_w
    k_card = z_given_w.shape[1]
    n_x = joint.axis("X").cardinality
    v_card = joint.axis("V").cardinality

    x_given_wy = np.empty((n_x, k_card, n_y))
    w_given_vy = np.empty((k_card, v_card, n_y))
    x_given_wy[:, :, y_ref] = fac.c_given_w
    w_given_vy[:, :, y_ref] = fac.w_given_v
    proj = 0.0

    for y in range(n_y):
        if y == y_ref:
            continue
        diag["stages"] += 1
        z_given_v = _slice_joint(joint, ("Z", "V"), {"Y": y})
        z_given_v = z_given_v / z_given_v.sum(axis=0, keepdims=True)
        sol, _ = _solve(z_given_w, z_given_v, f"shared proxy kernel (outcome {y})")
        w_given_vy[:, :, y], d = _project_columns(sol, f"latent posterior (outcome {y})")
        proj = max(proj, d)
        design = np.stack([np.outer(z_given_w[:, w], w_given_vy[w, :, y]).ravel()
                           for w in range(k_card)], axis=1)
        xzv = _slice_joint(joint, ("X", "Z", "V"), {"Y": y})
        xzv = xzv / xzv.sum(axis=(0, 1), keepdims=True)      # condition on v
        sol, _ = _solve(design, xzv.reshape(n_x, -1).T,
                        f"treatment design matrix (outcome {y})")
        x_given_wy[:, :, y], d = _project_columns(sol.T,
                                                  f"treatment kernel (outcome {y})")
        proj = max(proj, d)

    f_vy = marginalize(joint, set(joint.names) - {"V", "Y"}).reorder(("V", "Y")).values
    wy = np.einsum("wvy,vy->wy", w_given_vy, f_vy)          # f(w, y)
    yxw = np.einsum("xwy,wy->yxw", x_given_wy, wy)          # f(y, x, w)
    yxw, d = _project_nonneg(yxw, "outcome/treatment/latent joint")
    proj = max(proj, d)
    diag["projection_distance"] = proj

    wx = yxw.sum(axis=0).T                                   # (w, x)
    y_given_wx = _normalize_slices(np.transpose(yxw, (0, 2, 1)))

    return LatentOutcomeModel(
        y_given_wx=MarkovKernel.build(joint.axis("Y"), (_latent_space(k_card),
                                                        joint.axis("X")), y_given_wx),
        wx_joint=ProbTensor.build((_latent_space(k_card), joint.axis("X")), wx),
        z_given_w=MarkovKernel.build(joint.axis("Z"), (_latent_space(k_card),),
                                     z_given_w),
        design="cond-treatment", diagnostics=diag)


def identify_auxiliary_proxy(joint: ProbTensor, k: int,
                             opts: HsOptions | None = None) -> LatentOutcomeModel:
    """Auxiliary-proxy design: per-treatment-stratum factorization with an
    extra signal variable C, per-(y, v, x) deconvolution, and the V-integrated
    potential-outcome display."""
    _require_axes(joint, ("Y", "C", "Z", "V", "X"))
    f_x = marginalize(joint, set(joint.names) - {"X"}).values
    n_x = f_x.size
    x_ref = int(np.argmax(f_x))
    diag: dict = {"design": "auxiliary", "reference_stratum": x_ref}

    y_card = joint.axis("Y").cardinality
    v_card = joint.axis("V").cardinality
    factors: dict[int, HsFactors] = {}
    for x in range(n_x):
        fac = _hs(_slice_joint(joint, ("Z", "C", "V"), {"X": x}), k, opts, "auxiliary")
        factors[x] = fac
        diag[f"hs_x{x}"] = _diag_entry(fac)
    k_card = factors[x_ref].z_given_w.shape[1]
    z_given_w = factors[x_ref].z_given_w

    # align every stratum's latent ordering to the reference proxy kernel
    w_given_vx = np.empty((k_card, v_card, n_x))
    for x in range(n_x):
        perm = match_permutation(z_given_w, factors[x].z_given_w)
        w_given_vx[:, :, x] = factors[x].w_given_v[perm]

    f_vx = marginalize(joint, set(joint.names) - {"V", "X"}).reorder(("V", "X")).values
    vwx = np.einsum("wvx,vx->vwx", w_given_vx, f_vx)        # f(v, w, x)
    vwx, proj = _project_nonneg(vwx, "proxy/latent/treatment joint")

    yzvx = _slice_joint(joint, ("Y", "Z", "V", "X"), {})
    rhs = np.moveaxis(yzvx, 1, 0).reshape(yzvx.shape[1], -1)
    sol, cond = _solve(z_given_w, rhs, "shared proxy kernel")
    ywvx = sol.reshape(k_card, y_card, v_card, n_x).transpose(1, 0, 2, 3)
    ywvx, d = _project_nonneg(ywvx, "outcome/latent joint")
    proj = max(proj, d)
    diag["projection_distance"] = proj
    diag["solve_condition"] = cond

    y_given_wvx = _normalize_slices(ywvx)
    ywx = ywvx.sum(axis=2)
    wx = ywx.sum(axis=0)
    y_given_wx = _normalize_slices(ywx)

    w_space = _latent_space(k_card)
    return LatentOutcomeModel(
        y_given_wx=MarkovKernel.build(joint.axis("Y"), (w_space, joint.axis("X")),
                                      y_given_wx),
        wx_joint=ProbTensor.build((w_space, joint.axis("X")), wx),
        z_given_w=MarkovKernel.build(joint.axis("Z"), (w_space,), z_given_w),
        design="auxiliary",
        y_given_wvx=MarkovKernel.build(joint.axis("Y"),
                                       (w_space, joint.axis("V"), joint.axis("X")),
                                       y_given_wvx),
        vwx_joint=ProbTensor.build((joint.axis("V"), w_space, joint.axis("X")), vwx),
        diagnostics=diag)


# ---------------------------------------------------------------------------
# estimands


def potential_joint(m: LatentOutcomeModel, x1: int) -> ProbTensor:
    """Joint law of the potential outcome under treatment level ``x1``
    together with the latent state and the factual treatment."""
    m = m.canonicalized()
    if m.design == "auxiliary" and m.y_given_wvx is not None:
        vals = np.einsum("ywv,vwx->ywx", m.y_given_wvx.values[:, :, :, x1],
                         m.vwx_joint.values)
    else:
        vals = np.einsum("yw,wx->ywx", m.y_given_wx.values[:, :, x1],
                         m.wx_joint.values)
    y = m.y_given_wx.target
    arm = VarSpace(f"{y.name}({x1})", y.cardinality, y.levels)
    return ProbTensor.build((arm, m.wx_joint.axes[0], m.wx_joint.axes[1]), vals)


def _left_quantile(levels: np.ndarray, pmf: np.ndarray, tau: float) -> float:
    cdf = np.cumsum(pmf)
    idx = int(np.searchsorted(cdf, tau - 1e-12, side="left"))
    return float(levels[min(idx, levels.size - 1)])


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
    y_space = m.y_given_wx.target
    if y_space.levels is None:
        raise MissingLevels(f"outcome {y_space.name!r} carries no numeric levels")
    y_levels = y_space.level_values()
    n_x = m.wx_joint.values.shape[1]

    pots = [potential_joint(m, x1) for x1 in range(n_x)]
    w_x = m.wx_joint.values
    f_x = w_x.sum(axis=0)
    w_marg = w_x.sum(axis=1)
    w_given_x = w_x / f_x

    pot_y_given_x = np.stack(
        [p.values.sum(axis=1) / f_x for p in pots], axis=1)      # (|Y|, x1, x2)
    pot_y = np.stack([p.values.sum(axis=(1, 2)) for p in pots], axis=1)

    if n_x != 2:
        raise NonBinaryTreatment(f"effect summaries need a binary treatment, "
                                 f"got {n_x} levels")

    # effect summaries come from the potential-outcome laws so the
    # auxiliary design's V-integrated display is honored
    cond_w = np.stack([p.values.sum(axis=2) / w_marg for p in pots])  # (x1, y, w)
    beta = y_levels @ (cond_w[1] - cond_w[0])
    ate = float(y_levels @ (pot_y[:, 1] - pot_y[:, 0]))
    att = float(y_levels @ (pot_y_given_x[:, 1, 1] - pot_y_given_x[:, 0, 1]))
    atu = float(y_levels @ (pot_y_given_x[:, 1, 0] - pot_y_given_x[:, 0, 0]))

    qte = np.array([_left_quantile(y_levels, pot_y[:, 1], t)
                    - _left_quantile(y_levels, pot_y[:, 0], t) for t in taus])

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
