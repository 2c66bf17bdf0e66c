"""Spectral factorization of a (proxy, signal, proxy) joint distribution.

Given an exact three-way array ``f[z, c, v]`` that factorizes through a
discrete latent state ``w`` of known cardinality as

    f[z, c, v] = sum_w  z_given_w[z, w] * c_given_w[c, w] * wv_joint[w, v],

:func:`hs_decompose` recovers the three factors up to a joint permutation of
the latent states.  The construction follows the classical eigendecomposition
argument: a rank-``k`` truncated SVD of the ``(z, v)`` margin compresses the
problem to ``k`` dimensions, random convex combinations over the ``c`` axis
produce a diagonalizable transfer matrix whose eigenvector basis separates
the latent states, and the remaining factors drop out of diagonal extraction
and column normalization.

The permutation ambiguity is resolved canonically: latent states are sorted
by the lexicographic order of their ``z_given_w`` columns, so repeated runs
on permuted inputs return bitwise-identical factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AmbiguousMatch,
    ComplexResidual,
    EigenGapExhausted,
    NegativeMass,
    RankDeficient,
    ZeroConditioningCell,
)
from .prob import MASS_TOL, ProbTensor

COMPLETENESS_LABEL = "HS Assumption 3 / Assumption 2: completeness of the proxy kernels"
DISTINCTNESS_LABEL = "HS Assumption 4: distinct signal-kernel columns"

RANK_TOL = 1e-7        # least singular-value ratio of the (z, v) margin at rank k
EIGEN_GAP_TOL = 1e-6   # least gap between transfer-matrix eigenvalues
IMAG_TOL = 1e-7        # largest imaginary part of an accepted eigenvalue
NEG_TOL = 1e-6         # most negative entry clipped from a recovered kernel
MAX_RETRIES = 8        # random reweightings tried before refusing
AMBIGUITY_TOL = 1e-6   # least cost margin of a unique latent-label matching


@dataclass(frozen=True)
class HsOptions:
    """Per-call settings of :func:`hs_decompose`."""

    latent_dim: int
    seed: int = 0
    distinctness_label: str = DISTINCTNESS_LABEL


@dataclass(frozen=True)
class HsDiagnostics:
    singular_ratio: float
    eigen_gap: float
    max_imag: float
    max_offdiag: float
    lstsq_residual: float
    clipped_mass: float
    retries_used: int


@dataclass(frozen=True)
class HsFactors:
    """Recovered factors; latent axis is in canonical (lexicographic) order."""

    z_given_w: np.ndarray  # (|Z|, k) column-stochastic
    c_given_w: np.ndarray  # (|C|, k) column-stochastic
    w_given_v: np.ndarray  # (k, |V|) column-stochastic
    v_marginal: np.ndarray  # (|V|,)
    diagnostics: HsDiagnostics = field(compare=False)

    @property
    def wv_joint(self) -> np.ndarray:
        return self.w_given_v * self.v_marginal


def canonical_order(z_given_w: np.ndarray) -> np.ndarray:
    """Permutation sorting latent states lexicographically by proxy column,
    rounded to 12 digits so that round-off cannot order tied entries."""
    return np.lexsort(np.round(z_given_w, 12)[::-1])


def _clip_stochastic(mat: np.ndarray, axis: int, what: str) -> tuple[np.ndarray, float]:
    worst = float(-min(mat.min(), 0.0))
    if worst > NEG_TOL:
        raise NegativeMass(f"{what} has entries as low as {-worst:.3e}")
    out = np.clip(mat, 0.0, None)
    sums = out.sum(axis=axis, keepdims=True)
    if np.any(sums <= 0):
        raise NegativeMass(f"{what} has an all-zero slice")
    return out / sums, worst


def hs_decompose(joint: ProbTensor | np.ndarray, opts: HsOptions) -> HsFactors:
    """Recover the latent factorization of a (z, c, v) joint array.

    Axes are positional: axis 0 is the left proxy, axis 1 the signal whose
    latent-conditional law is extracted, axis 2 the right proxy.
    """
    f = joint.values if isinstance(joint, ProbTensor) else np.asarray(joint, dtype=float)
    # normalize memory layout: BLAS/einsum results can differ in the last bit
    # between strided views of the same values, which would break the
    # bit-reproducibility contract of the reports
    f = np.ascontiguousarray(f, dtype=float)
    if f.ndim != 3:
        raise ValueError("hs_decompose expects a three-axis joint")
    k = opts.latent_dim
    nz, nc, nv = f.shape
    if k > min(nz, nv):
        raise RankDeficient(
            f"latent dimension {k} exceeds proxy cardinalities ({nz}, {nv})",
            assumption=COMPLETENESS_LABEL)

    m_zv = f.sum(axis=1)
    u_full, sv, vh = np.linalg.svd(m_zv)
    if sv[0] <= 0 or sv[k - 1] / sv[0] < RANK_TOL:
        ratio = 0.0 if sv[0] <= 0 else float(sv[k - 1] / sv[0])
        raise RankDeficient(
            f"(z, v) margin has singular-value ratio {ratio:.3e} below "
            f"{RANK_TOL:.1e} at rank {k}", assumption=COMPLETENESS_LABEL)
    u = u_full[:, :k]
    r = vh[:k].T
    b = u.T @ m_zv @ r
    b_inv = np.linalg.inv(b)
    compressed = np.einsum("zi,zcv,vj->cij", u, f, r)  # (nc, k, k)

    rng = np.random.default_rng(opts.seed)
    best_gap, best_imag = -np.inf, np.inf
    eigvecs = None
    gap = imag = np.nan
    retries = 0
    for retries in range(MAX_RETRIES):
        xi = rng.dirichlet(np.ones(nc))
        t = np.einsum("c,cij->ij", xi, compressed) @ b_inv
        vals, vecs = np.linalg.eig(t)
        order = np.argsort(vals.real, kind="stable")
        vals, vecs = vals[order], vecs[:, order]
        gap = float(np.diff(vals.real).min()) if k > 1 else np.inf
        imag = float(np.abs(vals.imag).max())
        best_gap = max(best_gap, gap)
        best_imag = min(best_imag, imag)
        if gap >= EIGEN_GAP_TOL and imag <= IMAG_TOL:
            eigvecs = vecs.real
            break
    if eigvecs is None:
        if best_gap >= EIGEN_GAP_TOL:
            raise ComplexResidual(
                f"transfer-matrix eigenvalues kept imaginary parts up to "
                f"{best_imag:.3e} after {MAX_RETRIES} reweightings",
                assumption=opts.distinctness_label)
        raise EigenGapExhausted(
            f"best eigenvalue gap {best_gap:.3e} below {EIGEN_GAP_TOL:.1e} "
            f"after {MAX_RETRIES} reweightings",
            assumption=opts.distinctness_label)

    e_inv = np.linalg.inv(eigvecs)
    slices = np.einsum("ij,cjl,lm->cim", e_inv, compressed @ b_inv, eigvecs)
    offdiag = float(np.abs(slices - slices * np.eye(k)).max())
    c_given_w = np.diagonal(slices, axis1=1, axis2=2).copy()  # (nc, k)

    z_cols = u @ eigvecs
    col_sums = z_cols.sum(axis=0)
    if np.any(np.abs(col_sums) < 1e-12):
        raise RankDeficient("recovered proxy columns are mass-free",
                            assumption=COMPLETENESS_LABEL)
    z_cols = z_cols / col_sums

    v_marg = m_zv.sum(axis=0)
    if v_marg.min() <= MASS_TOL:
        raise ZeroConditioningCell(
            f"right-proxy level {int(np.argmin(v_marg))} has no mass")
    z_given_v = m_zv / v_marg
    w_given_v, res, *_ = np.linalg.lstsq(z_cols, z_given_v, rcond=None)
    residual = float(np.abs(z_cols @ w_given_v - z_given_v).max())

    perm = canonical_order(z_cols)
    z_cols, c_given_w, w_given_v = z_cols[:, perm], c_given_w[:, perm], w_given_v[perm]

    clipped = 0.0
    z_given_w, worst = _clip_stochastic(z_cols, 0, "proxy kernel")
    clipped = max(clipped, worst)
    c_given_w, worst = _clip_stochastic(c_given_w, 0, "signal kernel")
    clipped = max(clipped, worst)
    w_given_v, worst = _clip_stochastic(w_given_v, 0, "latent posterior")
    clipped = max(clipped, worst)

    diag = HsDiagnostics(
        singular_ratio=float(sv[k - 1] / sv[0]), eigen_gap=gap, max_imag=imag,
        max_offdiag=offdiag, lstsq_residual=residual, clipped_mass=clipped,
        retries_used=retries + 1)
    return HsFactors(z_given_w, c_given_w, w_given_v, v_marg, diag)


# ---------------------------------------------------------------------------
# latent-label matching: no pipeline calls it, since every stratum is
# expressed in the reference stratum's labels; the benchmark still does


def _min_assignment(cost: list[list[float]]) -> list[int]:
    """Column of each row in a minimum-cost perfect matching of a square
    matrix: Kuhn-Munkres with potentials (shortest augmenting paths, O(k^3)).
    The lists are 1-based; index 0 is the virtual column from which each
    row's augmenting path starts."""
    k = len(cost)
    inf = float("inf")
    u = [0.0] * (k + 1)
    v = [0.0] * (k + 1)
    row_of = [0] * (k + 1)  # row_of[j]: 1-based row matched to column j
    way = [0] * (k + 1)
    for i in range(1, k + 1):
        row_of[0] = i
        j0 = 0
        minv = [inf] * (k + 1)
        used = [False] * (k + 1)
        while row_of[j0]:
            used[j0] = True
            i0 = row_of[j0]
            row, ui = cost[i0 - 1], u[i0]
            delta, j1 = inf, 0
            for j in range(1, k + 1):
                if not used[j]:
                    cur = row[j - 1] - ui - v[j]
                    if cur < minv[j]:
                        minv[j], way[j] = cur, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(k + 1):
                if used[j]:
                    u[row_of[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    cols = [0] * k
    for j in range(1, k + 1):
        cols[row_of[j] - 1] = j - 1
    return cols


def match_permutation(reference: np.ndarray, candidate: np.ndarray) -> np.ndarray:
    """Permutation ``p`` minimizing total L1 gap of ``candidate[:, p]`` to
    ``reference``; raises :class:`AmbiguousMatch` when the optimum is not
    clearly unique."""
    if reference.shape != candidate.shape:
        raise AmbiguousMatch("column sets have different shapes")
    cost = np.abs(reference[:, :, None] - candidate[:, None, :]).sum(axis=0)
    if not np.isfinite(cost).all():
        raise ValueError("column sets contain non-finite entries")
    rows = np.arange(cost.shape[0])
    table = cost.tolist()
    cols = _min_assignment(table)
    best = float(cost[rows, cols].sum())
    # uniqueness: forbidding any chosen edge must strictly raise the optimum;
    # an edge costing more than every full matching is forbidden, and a
    # re-solve that still takes it has no alternative matching
    forbidden = float(cost.sum()) + 1.0
    for i, j in enumerate(cols):
        table[i][j] = forbidden
        alt_cols = _min_assignment(table)
        table[i][j] = float(cost[i, j])
        if alt_cols[i] == j:
            continue
        alt = float(cost[rows, alt_cols].sum())
        if alt - best < AMBIGUITY_TOL:
            raise AmbiguousMatch(
                f"two column matchings differ by only {alt - best:.3e}")
    return np.asarray(cols, dtype=np.int64)
