"""Identification pipelines and treatment-effect estimands.

Each ``identify_*`` function consumes an exact observed joint distribution
(a :class:`~triproxy.prob.ProbTensor` with conventional axis names) and a
latent cardinality, and assembles a :class:`LatentOutcomeModel` holding the
arm laws ``f(Y(x1) = y, W = w, X = x)`` and the latent/treatment joint
``f(w, x)``.  From those every downstream quantity — potential-outcome laws,
ATE/ATT/ATU, quantile effects, and the distribution of the stratum effect
β(W) — is a finite sum, computed by :func:`estimands`.

The designs of :data:`~triproxy.graphs.DESIGNS` differ only in which
variable is the third proxy (the outcome, the treatment, the treatment
within outcome strata, or an auxiliary C), and run the same three steps,
the first two being :func:`_stage`, which :mod:`triproxy.bounds` runs per arm:

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

Positivity is required: a latent cell whose treatment law ``f(x | cell)``
has mass in one arm and none in another has no identified outcome law
there, and is refused.

The latent ordering inside every assembled model is canonical (latent
states sorted lexicographically by their ``f(z | w)`` column), so reports
are invariant — bit for bit — under relabelings of the generating model's
hidden state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ._np import np
from .errors import (
    NonBinaryTreatment,
    NonStochasticSolution,
    SolveIllConditioned,
    UnknownAxis,
    ZeroConditioningCell,
)
from .graphs import DESIGNS, Design
from .prob import MarkovKernel, ProbTensor, VarSpace, marginalize
from .spectral import COMPLETENESS_LABEL, HsOptions, canonical_order, hs_decompose
from .tolerances import (ASSEMBLY_MASS_TOL, ATOM_TOL, COND_GUARD, MASS_TOL, PROJECTION_TOL,
                         QUANTILE_TOL)


@dataclass(frozen=True)
class LatentOutcomeModel:
    """The arm laws of every design plus the latent/treatment joint."""

    arm_laws: np.ndarray                # f(Y(x1) = y, W = w, X = x), (n_x, |Y|, k, n_x)
    y_space: VarSpace                   # the outcome Y
    wx_joint: ProbTensor                # f(w, x) over (W, X)
    z_given_w: MarkovKernel             # shared proxy kernel f(z | w)
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
        """The model in canonical latent order; itself when already in it."""
        perm = canonical_order(self.z_given_w.values)
        if (perm == np.arange(perm.size)).all():
            return self
        return self.permuted(perm)


# ---------------------------------------------------------------------------
# shared stages


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
    by more than ``MASS_TOL``, is refused.
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


def _require_positivity(cell_x: ProbTensor) -> None:
    """Refuse a latent cell whose treatment law f(x | cell) (the last axis)
    has mass in one arm but none in another: its outcome law in that arm is
    not identified.  The test is on the conditional law, so a cell split
    over many V levels is not refused for its small joint mass."""
    cell_mass = cell_x.values.sum(axis=-1, keepdims=True)
    empty = cell_x.values <= MASS_TOL * cell_mass
    bad = np.argwhere(empty.any(axis=-1) & ~empty.all(axis=-1))
    if bad.size:
        cell = tuple(int(i) for i in bad[0])
        x = int(np.argmax(empty[cell]))
        names = ", ".join(f"{a.name}={i}" for a, i in zip(cell_x.axes, cell))
        raise ZeroConditioningCell(
            f"latent cell ({names}) has conditional mass f(X={x} | cell) = "
            f"{cell_x.values[cell + (x,)] / cell_mass[cell][0]:.3e} <= {MASS_TOL} "
            "but not in every treatment arm (positivity)")


def _stage(joint: ProbTensor, d: Design, k: int, fix: dict, solve: dict, what: str) -> tuple:
    """Factorize the (Z, signal, V) law of ``d`` given ``fix``; deconvolve
    ``d.second_stage`` given ``solve``, less the axes ``solve`` fixes, through
    that f(z | w).  Returns the factors and :func:`_deconvolve`'s results."""
    fac = hs_decompose(_slice_joint(joint, ("Z", d.signal, "V"), fix),
                       HsOptions(latent_dim=k, distinctness_label=d.distinctness))
    axes = tuple(a for a in d.second_stage if a not in solve)
    return (fac,) + _deconvolve(fac.z_given_w, _slice_joint(joint, axes, solve), what)


def _identify(joint: ProbTensor, k: int, design: str) -> LatentOutcomeModel:
    """The stage once, in the reference stratum, to f(y, w, x), or f(y, w, v, x)
    for the auxiliary design; then each arm integrates f(y | w, v, x1) over
    f(v, w, x) within each latent state and factual treatment (no V: one level)."""
    d = DESIGNS[design]
    _require_axes(joint, d.axes)
    fix = {}
    if d.stratum is not None:
        f_s = marginalize(joint, set(joint.names) - {d.stratum}).values
        fix = {d.stratum: int(np.argmax(f_s))}
    fac, latent, neg, cond = _stage(joint, d, k, fix, {}, "latent joint")
    y, x = joint.axis("Y"), joint.axis("X")
    cell = (VarSpace("W", k, tuple(map(float, range(k)))),) + tuple(   # (W,) or (W, V)
        joint.axis(n) for n in d.second_stage[2:-1])
    cell_x = ProbTensor.build(cell + (x,), latent.sum(axis=0))
    _require_positivity(cell_x)
    y_given = MarkovKernel.build(y, cell + (x,), _normalize_slices(latent)).values
    wvx = cell_x.values.reshape(k, -1, x.cardinality)
    laws = np.einsum("ywvt,wvx->tywx", y_given.reshape((y.cardinality,) + wvx.shape), wvx)
    h = fac.diagnostics
    return LatentOutcomeModel(
        arm_laws=laws, y_space=y, wx_joint=ProbTensor((cell[0], x), wvx.sum(axis=1)),
        z_given_w=MarkovKernel.build(joint.axis("Z"), cell[:1], fac.z_given_w),
        diagnostics={"design": design, "reference_stratum": fix,
                     "hs": {"singular_ratio": h.singular_ratio, "eigen_gap": h.eigen_gap,
                            "lstsq_residual": h.lstsq_residual, "clipped_mass": h.clipped_mass},
                     "projection_distance": neg, "solve_condition": cond})


# ---------------------------------------------------------------------------
# the four pipelines


def identify_outcome_proxy(joint: ProbTensor, k: int) -> LatentOutcomeModel:
    """Outcome-proxy design: the outcome is the signal, factorized in the
    reference treatment stratum."""
    return _identify(joint, k, "outcome")


def identify_treatment_proxy(joint: ProbTensor, k: int) -> LatentOutcomeModel:
    """Treatment-proxy design: the treatment is the signal, factorized on the
    whole joint."""
    return _identify(joint, k, "treatment")


def identify_cond_treatment_proxy(joint: ProbTensor, k: int) -> LatentOutcomeModel:
    """Conditional-treatment design: the treatment is the signal, factorized
    in the reference outcome stratum."""
    return _identify(joint, k, "cond-treatment")


def identify_auxiliary_proxy(joint: ProbTensor, k: int) -> LatentOutcomeModel:
    """Auxiliary-proxy design: C is the signal, factorized in the reference
    treatment stratum, and V is integrated into the arm laws."""
    return _identify(joint, k, "auxiliary")


# ---------------------------------------------------------------------------
# estimands


def _left_quantile_index(pmf: np.ndarray, taus):
    """Index of the left ``taus``-quantile of ``pmf``; a CDF value within
    ``QUANTILE_TOL`` of tau reaches it."""
    cdf = np.cumsum(pmf)
    at = np.asarray(taus, dtype=float) - QUANTILE_TOL
    return np.minimum(np.searchsorted(cdf, at, side="left"), pmf.size - 1)


def _state_effects(laws: np.ndarray, w_marginal: np.ndarray,
                   y_levels: np.ndarray) -> np.ndarray:
    """Per-latent-state effect E[Y(1) - Y(0) | W = w] from the arm laws,
    which must be those of a binary treatment."""
    if laws.shape[0] != 2:
        raise NonBinaryTreatment(f"effect summaries need a binary treatment, "
                                 f"got {laws.shape[0]} levels")
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
    qte: np.ndarray                # quantile treatment effects at QTE_TAUS
    beta: np.ndarray               # per-latent-state effect, canonical order
    w_marginal: np.ndarray
    beta_atoms: np.ndarray         # sorted distinct effect values
    beta_cdf: np.ndarray           # F_{beta(W)} at the atoms
    beta_cdf_given_x: np.ndarray   # shape (n_atoms, n_x)
    var_beta: float


#: the quantile ranks of the reported quantile treatment effects
QTE_TAUS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def estimands(m: LatentOutcomeModel) -> EstimandReport:
    m = m.canonicalized()
    y_levels = m.y_space.level_values()
    laws = m.arm_laws                                        # (x1, y, w, x2)
    w_x = m.wx_joint.values
    f_x = w_x.sum(axis=0)
    w_marg = w_x.sum(axis=1)
    beta = _state_effects(laws, w_marg, y_levels)           # refuses a non-binary X

    pot_y_given_x = laws.sum(axis=2).transpose(1, 0, 2) / f_x   # (|Y|, x1, x2)
    pot_y = laws.sum(axis=(2, 3)).T                          # (|Y|, x1)
    ate = float(y_levels @ (pot_y[:, 1] - pot_y[:, 0]))
    att = float(y_levels @ (pot_y_given_x[:, 1, 1] - pot_y_given_x[:, 0, 1]))
    atu = float(y_levels @ (pot_y_given_x[:, 1, 0] - pot_y_given_x[:, 0, 0]))

    q = [y_levels[_left_quantile_index(pot_y[:, x], QTE_TAUS)] for x in (0, 1)]
    qte = q[1] - q[0]

    order = np.argsort(beta, kind="stable")
    sorted_beta = beta[order]
    keep = np.concatenate([[True], np.diff(sorted_beta) > ATOM_TOL])
    atoms = sorted_beta[keep]
    group = np.cumsum(keep) - 1
    masses = np.zeros(atoms.size)
    np.add.at(masses, group, w_marg[order])
    masses_x = np.zeros((atoms.size, f_x.size))
    np.add.at(masses_x, group, (w_x / f_x)[order])
    beta_cdf = np.cumsum(masses)
    beta_cdf_given_x = np.cumsum(masses_x, axis=0)
    var_beta = float((beta - ate) ** 2 @ w_marg)

    return EstimandReport(
        y_levels=tuple(float(v) for v in y_levels),
        pot_y_given_x=pot_y_given_x, pot_y=pot_y,
        ate=ate, att=att, atu=atu,
        qte=qte,
        beta=beta, w_marginal=w_marg,
        beta_atoms=atoms, beta_cdf=beta_cdf, beta_cdf_given_x=beta_cdf_given_x,
        var_beta=var_beta)
