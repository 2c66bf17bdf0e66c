"""Generators against the loops they replaced: the batched
:func:`figure_diagnostics` against the per-stratum loop over restricted
tensors, and the stacked exact-mean pmfs against the scalar construction,
random stream included."""

import numpy as np
import pytest

from triproxy.errors import InvalidDistribution, ZeroConditioningCell
from triproxy.generators import (_SCREENS, FIGURE_DESIGNS, MAX_TRIES, FixtureDiagnostics,
                                 _derive, _mean_spread_kernel, _pmfs_with_means,
                                 _separated_blocks, designed_npsem, figure_diagnostics,
                                 standard_spaces)
from triproxy.graphs import FIGURES
from triproxy.prob import ProbTensor, marginalize, restrict
from triproxy.scm import observable_joint


def _kernel(t: ProbTensor, target: str, given: tuple[str, ...]) -> np.ndarray:
    """f(target | given) = f(target, given) / f(given), with the given axes in
    the order of ``t``; a given cell without mass is refused."""
    t = marginalize(t, set(t.names) - {target} - set(given))
    arr = t.reorder((target,) + tuple(n for n in t.names if n != target)).values
    marg = arr.sum(axis=0)
    if np.any(marg <= 0):
        raise ZeroConditioningCell(f"a cell of {given} has zero probability")
    return arr / marg


def _sv_ratio(mat: np.ndarray, k: int) -> float:
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size < k or sv[0] <= 0:
        return 0.0
    return float(sv[k - 1] / sv[0])


def _col_gap(mat: np.ndarray) -> float:
    k = mat.shape[1]
    if k < 2:
        return np.inf
    gaps = [np.abs(mat[:, i] - mat[:, j]).max()
            for i in range(k) for j in range(i + 1, k)]
    return float(min(gaps))


def reference_screens(m, figure: str, K: int) -> FixtureDiagnostics:
    """The screens one stratum at a time, through the tensor operations."""
    axis, signal, mass_axes = _SCREENS[FIGURE_DESIGNS[figure]]
    joint = observable_joint(m)
    sv, gap, mass = np.inf, np.inf, np.inf
    if axis is None:
        strata = [joint]
    else:
        mass = float(marginalize(joint, set(joint.names) - {axis}).values.min())
        strata = [restrict(joint, {axis: s}) for s in range(m[axis].space.cardinality)]
    for t in strata:
        wv = marginalize(t, set(t.names) - {"W", "V"}).reorder(("W", "V")).values
        sv = min(sv, _sv_ratio(_kernel(t, "Z", ("W",)), K), _sv_ratio(wv, K))
        gap = min(gap, _col_gap(_kernel(t, signal, ("W",))))
        for a in mass_axes:
            mass = min(mass, float(marginalize(t, set(t.names) - {a}).values.min()))
    return FixtureDiagnostics(sv, gap, mass, np.inf)


@pytest.mark.parametrize("K", [2, 3, 4])
@pytest.mark.parametrize("figure", sorted(FIGURE_DESIGNS))
def test_batched_screens_match_the_per_stratum_loop(figure, K):
    # every draw up to the first one the screens accept, as figure_model draws
    for attempt in range(MAX_TRIES):
        m = designed_npsem(FIGURES[figure], standard_spaces(K),
                           seed=_derive(figure, K, 0, attempt))
        got = figure_diagnostics(m, figure, K, with_cate=False)
        want = reference_screens(m, figure, K)
        np.testing.assert_allclose([got.sv_ratio, got.column_gap, got.stratum_mass],
                                   [want.sv_ratio, want.column_gap, want.stratum_mass],
                                   rtol=0, atol=1e-12)
        assert got.cate_gap == np.inf
        assert got.passes() == want.passes()
        if got.passes():
            break
    else:
        pytest.fail(f"no accepted draw for {figure} K={K}")


@pytest.mark.parametrize("x1_iff_w0", [False, True], ids=["empty-stratum", "empty-w-cell"])
def test_zero_mass_raises(x1_iff_w0):
    dag, spaces = FIGURES["fig2a"], standard_spaces(2)
    parents = dag.parents("X")
    kern = np.zeros((2,) + tuple(spaces[p].cardinality for p in parents))
    kern[0] = 1.0                 # X = 0 always: the stratum X = 1 is empty
    if x1_iff_w0:                 # X = 1 iff W = 0: W = 1 is empty within X = 1
        w0 = tuple(0 if p == "W" else slice(None) for p in parents)
        kern[(0,) + w0], kern[(1,) + w0] = 0.0, 1.0
    m = designed_npsem(dag, spaces, seed=0, kernels={"X": kern})
    for screens in (figure_diagnostics, reference_screens):
        with pytest.raises(ZeroConditioningCell):
            screens(m, "fig2a", 2)


def _pmf_with_mean(levels: np.ndarray, mean: float,
                   rng: np.random.Generator) -> np.ndarray:
    """One random pmf over ``levels`` with the exact requested mean, drawing
    its Dirichlet weights from ``rng`` (the scalar construction)."""
    lo, hi = levels.min(), levels.max()
    if not lo + 1e-9 < mean < hi - 1e-9:
        raise InvalidDistribution(f"mean {mean} outside ({lo}, {hi})")
    q = rng.dirichlet(np.ones(levels.size))
    mq = float(q @ levels)
    slack = min(mean - lo, hi - mean)
    lam = min(0.95, max(0.35, abs(mean - mq) / (abs(mean - mq) + slack) + 0.05))
    m2 = (mean - (1 - lam) * mq) / lam
    p = (1 - lam) * q
    w_hi = (m2 - lo) / (hi - lo)
    p[np.argmax(levels)] += lam * w_hi
    p[np.argmin(levels)] += lam * (1 - w_hi)
    if p.min() < -1e-12:
        raise InvalidDistribution("could not realize requested mean")
    return np.clip(p, 0, None) / p.sum()


def _mean_spread_loop(rng, levels, parent_cards, sep_axis):
    """The outcome kernel one column at a time."""
    k_sep = parent_cards[sep_axis]
    out = np.empty((levels.size,) + tuple(parent_cards))
    lo, hi = levels.min() + 0.25, levels.max() - 0.25
    for block in _separated_blocks(out, sep_axis):
        offsets = rng.permutation(k_sep)
        for w in range(k_sep):
            mean = lo + (offsets[w] + rng.uniform(0.15, 0.85)) * (hi - lo) / k_sep
            block[:, w] = _pmf_with_mean(levels, mean, rng)
    return out


@pytest.mark.parametrize("n_levels", range(3, 9))
def test_stacked_pmfs_match_the_scalar_construction(n_levels):
    levels = np.linspace(-1.0, 2.5, n_levels) ** 3       # uneven spacing
    lo, hi = levels.min(), levels.max()
    rng = np.random.default_rng(n_levels)
    means = rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), size=300)
    draw = np.random.default_rng(100 + n_levels)
    want = np.stack([_pmf_with_mean(levels, m, draw) for m in means], axis=1)
    qs = np.random.default_rng(100 + n_levels).dirichlet(np.ones(n_levels),
                                                         size=means.size)
    got = _pmfs_with_means(levels, means, qs)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    with pytest.raises(InvalidDistribution):
        _pmfs_with_means(levels, np.array([0.0, lo + 1e-9]), qs[:2])


@pytest.mark.parametrize("parent_cards", [(2, 3), (3, 2), (2, 4, 3), (5,)],
                         ids=str)
@pytest.mark.parametrize("levels", [np.arange(3.0), np.array([-1.0, 0.5, 2.0, 4.0, 4.5])],
                         ids=["3-levels", "5-uneven"])
def test_mean_spread_kernel_matches_the_column_loop(parent_cards, levels):
    for sep_axis in range(len(parent_cards)):
        for seed in range(4):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _mean_spread_kernel(got_rng, levels, parent_cards, sep_axis)
            want = _mean_spread_loop(want_rng, levels, parent_cards, sep_axis)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (sep_axis, seed)
            # the same draws, so the stream goes on where the loop left it
            assert got_rng.random() == want_rng.random()
