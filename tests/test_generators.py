"""Fixture screens: the batched :func:`figure_diagnostics` against the
per-stratum loop over restricted tensors that it replaced."""

import numpy as np
import pytest

from triproxy.errors import ZeroConditioningCell
from triproxy.generators import (_SCREENS, FIGURE_DESIGNS, MAX_TRIES, FixtureDiagnostics,
                                 _derive, designed_npsem, figure_diagnostics,
                                 standard_spaces)
from triproxy.graphs import FIGURES
from triproxy.prob import ProbTensor, condition, marginalize, restrict
from triproxy.scm import observable_joint


def _kernel(t: ProbTensor, target: str, given: tuple[str, ...]) -> np.ndarray:
    t = marginalize(t, set(t.names) - {target} - set(given))
    return condition(t, set(given)).values


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
