"""Spectral factorization of a (proxy, signal, proxy) joint distribution.

Given an exact three-way array ``f[z, c, v]`` that factorizes through a
discrete latent state ``w`` of known cardinality as

    f[z, c, v] = sum_w  z_given_w[z, w] * c_given_w[c, w]
                        * w_given_v[w, v] * v_marginal[v],

:func:`hs_decompose` recovers the three factors up to a joint permutation of
the latent states.  The construction follows the classical eigendecomposition
argument: a rank-``k`` truncated SVD of the ``(z, v)`` margin compresses the
problem to ``k`` dimensions, convex combinations over the ``c`` axis
produce a diagonalizable transfer matrix whose eigenvector basis separates
the latent states, and the remaining factors drop out of diagonal extraction
and column normalization.  Any generic combination separates the states, so
the weights come from one fixed random stream: the factors depend on the
joint and the latent dimension alone.

A reweighting is accepted on its eigen gap alone.  The transfer matrix is
real, so a complex eigenvalue comes with its conjugate, which has the same
real part: a reweighting whose sorted real parts lie ``EIGEN_GAP_TOL`` apart
has only real eigenvalues, and no test of imaginary parts is needed.

The permutation ambiguity is resolved canonically: latent states are sorted
by the lexicographic order of their ``z_given_w`` columns, so repeated runs
on permuted inputs return bitwise-identical factors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from ._np import np
from .errors import (
    AmbiguousMatch,
    EigenGapExhausted,
    EnumerationTooLarge,
    NegativeMass,
    RankDeficient,
    ZeroConditioningCell,
)
from .tolerances import (CANONICAL_DIGITS, COLUMN_MASS_TOL, EIGEN_GAP_TOL, ENUMERATION_GUARD,
                         KERNEL_NEG_TOL, MASS_TOL, MAX_RETRIES, RANK_TOL)

COMPLETENESS_LABEL = "HS Assumption 3 / Assumption 2: completeness of the proxy kernels"
DISTINCTNESS_LABEL = "HS Assumption 4: distinct signal-kernel columns"

AMBIGUITY_TOL = 1e-6   # least cost margin of a unique latent-label matching


@dataclass(frozen=True)
class HsOptions:
    """Per-call settings of :func:`hs_decompose`."""

    latent_dim: int
    distinctness_label: str = DISTINCTNESS_LABEL


@dataclass(frozen=True)
class HsDiagnostics:
    singular_ratio: float
    eigen_gap: float | None         # None for one latent state: no two eigenvalues
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


def canonical_order(z_given_w: np.ndarray) -> np.ndarray:
    """Permutation sorting latent states lexicographically by proxy column,
    rounded to ``CANONICAL_DIGITS`` decimals so that round-off cannot order
    tied entries."""
    return np.lexsort(np.round(z_given_w, CANONICAL_DIGITS)[::-1])


def _clip_stochastic(mat: np.ndarray, axis: int, what: str) -> tuple[np.ndarray, float]:
    worst = float(-min(mat.min(), 0.0))
    if worst > KERNEL_NEG_TOL:
        raise NegativeMass(f"{what} has entries as low as {-worst:.3e}")
    out = np.clip(mat, 0.0, None)
    sums = out.sum(axis=axis, keepdims=True)
    if np.any(sums <= 0):
        raise NegativeMass(f"{what} has an all-zero slice")
    return out / sums, worst


def hs_decompose(joint: np.ndarray, opts: HsOptions) -> HsFactors:
    """Recover the latent factorization of a (z, c, v) joint, given as a
    plain three-axis ndarray.

    Axes are positional: axis 0 is the left proxy, axis 1 the signal whose
    latent-conditional law is extracted, axis 2 the right proxy.  Up to
    ``MAX_RETRIES`` reweightings of the signal axis are drawn from a fresh
    ``np.random.default_rng(0)``, so equal inputs give bitwise-equal factors.
    The first whose eigenvalues have real parts ``EIGEN_GAP_TOL`` apart is
    accepted; they are then all real (see the module docstring).
    """
    # normalize memory layout: BLAS/einsum results can differ in the last bit
    # between strided views of the same values, which would break the
    # bit-reproducibility contract of the reports
    f = np.ascontiguousarray(joint, dtype=float)
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

    rng = np.random.default_rng(0)
    best_gap = -np.inf
    for retries in range(MAX_RETRIES):
        xi = rng.dirichlet(np.ones(nc))
        t = np.einsum("c,cij->ij", xi, compressed) @ b_inv
        vals, vecs = np.linalg.eig(t)
        order = np.argsort(vals.real, kind="stable")
        vals, vecs = vals[order], vecs[:, order]
        gap = float(np.diff(vals.real).min()) if k > 1 else np.inf
        best_gap = max(best_gap, gap)
        if gap >= EIGEN_GAP_TOL:
            break
    else:
        raise EigenGapExhausted(
            f"best eigenvalue gap {best_gap:.3e} below {EIGEN_GAP_TOL:.1e} "
            f"after {MAX_RETRIES} reweightings",
            assumption=opts.distinctness_label)
    eigvecs = vecs.real

    e_inv = np.linalg.inv(eigvecs)
    slices = np.einsum("ij,cjl,lm->cim", e_inv, compressed @ b_inv, eigvecs)
    c_given_w = np.diagonal(slices, axis1=1, axis2=2).copy()  # (nc, k)

    z_cols = u @ eigvecs
    col_sums = z_cols.sum(axis=0)
    if np.any(np.abs(col_sums) < COLUMN_MASS_TOL):
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
        singular_ratio=float(sv[k - 1] / sv[0]), eigen_gap=gap if k > 1 else None,
        lstsq_residual=residual, clipped_mass=clipped,
        retries_used=retries + 1)
    return HsFactors(z_given_w, c_given_w, w_given_v, v_marg, diag)


# ---------------------------------------------------------------------------
# latent-label matching: no pipeline calls it, since every stratum is
# expressed in the reference stratum's labels; the benchmark still does


def match_permutation(reference: np.ndarray, candidate: np.ndarray) -> np.ndarray:
    """Permutation ``p`` minimizing total L1 gap of ``candidate[:, p]`` to
    ``reference``, found by trying all k! relabelings of the k columns;
    raises :class:`AmbiguousMatch` when the optimum is not clearly unique,
    and :class:`EnumerationTooLarge` when k! * k exceeds
    ``ENUMERATION_GUARD``."""
    if reference.shape != candidate.shape:
        raise AmbiguousMatch("column sets have different shapes")
    cost = np.abs(reference[:, :, None] - candidate[:, None, :]).sum(axis=0)
    if not np.isfinite(cost).all():
        raise ValueError("column sets contain non-finite entries")
    k = cost.shape[0]
    terms = math.factorial(k) * k
    if terms > ENUMERATION_GUARD:
        raise EnumerationTooLarge(
            f"matching {k} columns would sum {terms} costs, over the "
            f"{ENUMERATION_GUARD} guard")
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.int64)
    totals = cost[np.arange(k), perms].sum(axis=1)
    order = np.argsort(totals, kind="stable")
    margin = totals[order[1]] - totals[order[0]] if k > 1 else np.inf
    if margin < AMBIGUITY_TOL:
        raise AmbiguousMatch(f"two column matchings differ by only {margin:.3e}")
    return perms[order[0]]
