"""Generators against the loops they replaced: the batched screens, on the
observable joint and on the margin of the drawn kernels' product, against
the per-stratum loop over restricted tensors; that product against the
exact oracle's joint; the stacked exact-mean pmfs and both kernel builders
against the scalar constructions, random stream included; the refusals of
bad generator arguments; and models at latent dimensions whose proxies
outgrow the smallest kernel grid against the oracle."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from triproxy.cli import PIPELINES
from triproxy.errors import EnumerationTooLarge, InvalidDistribution, ZeroConditioningCell
from triproxy.generators import (FIGURE_DESIGNS, MAX_TRIES, PIPELINE_FIGURES,
                                 FixtureDiagnostics, _column_gap, _derive, _designed_kernels,
                                 _kernel_margin, _mean_spread_kernel, _pmfs_with_means,
                                 _resolve, _screen_axes, _screened_draw, _screens,
                                 _w_margin, designed_npsem, figure_diagnostics, figure_model,
                                 random_npsem, rank_invariant_bounds_model, separated_kernel,
                                 standard_spaces, unbiased_proxy_model)
from triproxy.graphs import DESIGNS, FIGURES
from triproxy.pipelines import estimands
from triproxy.prob import ProbTensor, VarSpace, marginalize, restrict
from triproxy.scm import effects, observable_joint, observed_joint
from triproxy.tolerances import ENUMERATION_GUARD


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


#: per design: (stratum axis or None, signal, axes whose per-stratum
#: marginals must keep mass)
SCREENS = {
    "outcome": ("X", "Y", ("W",)),
    "bounds-outcome": ("X", "Y", ("W",)),
    "treatment": (None, "X", ("W",)),
    "cond-treatment": ("Y", "X", ("W",)),
    "auxiliary": ("X", "C", ("V", "W")),
    "bounds-auxiliary": ("X", "C", ("V", "W")),
}


def reference_screens(m, figure: str) -> FixtureDiagnostics:
    """The screens one stratum at a time, through the tensor operations."""
    axis, signal, mass_axes = SCREENS[FIGURE_DESIGNS[figure]]
    joint, K = observable_joint(m), m["W"].space.cardinality
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


def draws_up_to_acceptance(figure: str, K: int):
    """``(kernels, encoded model)`` of every draw that ``figure_model`` makes
    at seed 0, up to the first one it accepts."""
    dag, spaces = FIGURES[figure], standard_spaces(K)
    for attempt in range(MAX_TRIES):
        seed = _derive(figure, K, 0, attempt)
        m = designed_npsem(dag, spaces, seed=seed)
        yield _designed_kernels(dag, spaces, seed=seed), m
        if figure_diagnostics(m, figure).passes():
            return
    pytest.fail(f"no accepted draw for {figure} K={K}")


def prefix(kernels, names):
    """The kernels up to the last of the nodes ``names`` in topological
    order: the ones the draw loop holds when it screens ``names``."""
    last = max(i for i, (space, _, _) in enumerate(kernels) if space.name in names)
    return kernels[:last + 1]


def kernel_screens(kernels, figure: str) -> FixtureDiagnostics:
    """The screens a draw gets in the draw loop: on the margin of the
    product of its kernels up to the last screen axis."""
    _, d, _ = _resolve(figure)
    axes = _screen_axes(d)
    return _screens(_kernel_margin(prefix(kernels, axes), axes), d)


def early_column_gap(kernels, figure: str) -> float:
    """The column gap the draw loop screens first, on the product of the
    kernels up to the stratum axis, W and the signal."""
    _, d, _ = _resolve(figure)
    axes = ((d.stratum,) if d.stratum else ()) + ("W", d.signal)
    t = _kernel_margin(prefix(kernels, axes), axes)
    t = t.reshape((-1,) + t.shape[-2:])
    return _column_gap(t, _w_margin(t, d))


@pytest.mark.parametrize("K", [2, 3, 4])
@pytest.mark.parametrize("figure", sorted(FIGURE_DESIGNS))
def test_batched_screens_match_the_per_stratum_loop(figure, K):
    for kernels, m in draws_up_to_acceptance(figure, K):
        want = reference_screens(m, figure)
        screens, diagnostics = kernel_screens(kernels, figure), figure_diagnostics(m, figure)
        for got in (screens, diagnostics):
            np.testing.assert_allclose([got.sv_ratio, got.column_gap, got.stratum_mass],
                                       [want.sv_ratio, want.column_gap, want.stratum_mass],
                                       rtol=0, atol=1e-12)
        assert screens.cate_gap == np.inf
        assert screens.passes() == want.passes()
        # the oracle's CATE gap: never on a bounds design's figure, and only
        # on a point design's draw that passes the screens
        if FIGURE_DESIGNS[figure].startswith("bounds-"):
            assert diagnostics.cate_gap == np.inf
        elif want.passes():
            assert 0 <= diagnostics.cate_gap < np.inf
        else:
            assert np.isnan(diagnostics.cate_gap)
        # the gap a draw is refused on before its last screen axis is drawn
        gap = early_column_gap(kernels, figure)
        np.testing.assert_allclose(gap, want.column_gap, rtol=0, atol=1e-12)
        assert (gap >= 0.08) == (want.column_gap >= 0.08)


@pytest.mark.parametrize("K", [2, 3, 4])
@pytest.mark.parametrize("figure", sorted(FIGURE_DESIGNS))
def test_kernel_product_is_the_observable_joint(figure, K):
    # the screened draws see the joint the encoded model hands out
    axes = _screen_axes(_resolve(figure)[1])
    for kernels, m in draws_up_to_acceptance(figure, K):
        joint = observable_joint(m)
        np.testing.assert_allclose(_kernel_margin(kernels, joint.names), joint.values,
                                   rtol=0, atol=1e-15)
        margin = marginalize(joint, set(joint.names) - set(axes)).reorder(axes).values
        for nodes in (kernels, prefix(kernels, axes)):
            np.testing.assert_allclose(_kernel_margin(nodes, axes), margin, rtol=0, atol=1e-15)
        got, want = kernel_screens(kernels, figure), figure_diagnostics(m, figure)
        np.testing.assert_allclose([got.sv_ratio, got.column_gap, got.stratum_mass],
                                   [want.sv_ratio, want.column_gap, want.stratum_mass],
                                   rtol=0, atol=1e-12)
        assert got.passes() == replace(want, cate_gap=np.inf).passes()


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
            screens(m, "fig2a")
    kernels = _designed_kernels(dag, spaces, seed=0, kernels={"X": kern})
    with pytest.raises(ZeroConditioningCell):
        _screened_draw(lambda attempt: kernels, *_resolve("fig2a")[1:], "draw")


def test_zero_mass_raises_before_the_last_kernel():
    # fig4a draws V, a screen axis, after the stratum Y, W and the signal X,
    # so the draw loop meets the empty W cell on its first, column-gap screen
    dag, spaces = FIGURES["fig4a"], standard_spaces(2)
    assert dag.topological_order()[-1] == "V"
    kern = np.full((3, 2, 2), 1 / 3)              # f(Y | X, W)
    kern[:, :, 0] = [[0.0, 0.0], [0.5, 0.5], [0.5, 0.5]]   # Y = 0 never with W = 0
    kernels = _designed_kernels(dag, spaces, seed=0, kernels={"Y": kern})
    with pytest.raises(ZeroConditioningCell, match="W = 0 has zero probability in stratum 0"):
        _screened_draw(lambda attempt: kernels, *_resolve("fig4a")[1:], "draw")
    with pytest.raises(ZeroConditioningCell, match="W = 0 has zero probability in stratum 0"):
        figure_diagnostics(designed_npsem(dag, spaces, seed=0, kernels={"Y": kern}), "fig4a")


def test_oversized_joint_raises_from_both_paths():
    dag, spaces = FIGURES["fig2a"], standard_spaces(2)
    card = 1000                   # |W X Y Z V| = 12 * card**2 cells
    assert 12 * card ** 2 > ENUMERATION_GUARD
    spaces.update({n: VarSpace(n, card) for n in ("Z", "V")})
    # the plan refuses before anything is drawn, and the draw loop refuses
    # kernels handed to it whole
    with pytest.raises(EnumerationTooLarge):
        designed_npsem(dag, spaces, seed=0)
    kernels = []
    for name in dag.topological_order():
        shape = tuple(spaces[n].cardinality for n in (name, *dag.parents(name)))
        kernels.append((spaces[name], dag.parents(name), np.full(shape, 1.0 / shape[0])))
    with pytest.raises(EnumerationTooLarge):
        _screened_draw(lambda attempt: kernels, *_resolve("fig2a")[1:], "draw")


@pytest.mark.parametrize("column", [(np.nan, 0.5), (np.inf, 0.5), (-0.25, 1.25), (0.75, 0.5)],
                         ids=["nan", "inf", "negative", "mass-off"])
def test_kernel_margin_refuses_what_a_joint_would(column):
    dag, spaces = FIGURES["fig2a"], standard_spaces(2)
    kern = np.full((2, 2, 3), 0.5)                # f(X | W, V)
    kern[:, 0, 0] = column
    kernels = _designed_kernels(dag, spaces, seed=0, kernels={"X": kern})
    with pytest.raises(InvalidDistribution):
        _kernel_margin(kernels, ("X", "W", "Z", "V", "Y"))


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


def _separated_blocks(kernel: np.ndarray, sep_axis: int):
    """Views ``(level, separated parent)`` of ``kernel``, one per
    configuration of the other parents, in row-major order."""
    cards = kernel.shape[1:]
    other = [range(c) for i, c in enumerate(cards) if i != sep_axis]
    for idx in itertools.product(*other):
        yield kernel[(slice(None),) + idx[:sep_axis] + (slice(None),) + idx[sep_axis:]]


def _separated_loop(rng, card, parent_cards, sep_axis, grains):
    """The grid-quantized kernel one cell at a time."""
    k_sep = parent_cards[sep_axis]
    out = np.empty((card,) + tuple(parent_cards))
    spare = grains - card
    top = min(3, max(spare - 2, 0))
    for block in _separated_blocks(out, sep_axis):
        if card == 2:
            heights = rng.choice(np.arange(1, grains), size=k_sep, replace=False)
            block[0], block[1] = grains - heights, heights
        else:
            start = int(rng.integers(card))
            for w in range(k_sep):
                col = [1] * card
                sprinkle = int(rng.integers(0, top + 1))
                col[(start + w) % card] += spare - sprinkle
                for _ in range(sprinkle):
                    col[int(rng.integers(card))] += 1
                block[:, w] = col
    return out / grains


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


@pytest.mark.parametrize("parent_cards", [(2,), (3,), (4, 2), (2, 3), (3, 4, 2), (2, 2, 3)],
                         ids=str)
@pytest.mark.parametrize("card", [2, 3, 4])
def test_separated_kernel_matches_the_column_loop(card, parent_cards):
    for sep_axis in range(len(parent_cards)):
        for grains in (card + 4, 12):
            for seed in range(6):
                got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = separated_kernel(got_rng, card, parent_cards, sep_axis, grains)
                want = _separated_loop(want_rng, card, parent_cards, sep_axis, grains)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (sep_axis, grains, seed)
                assert got_rng.random() == want_rng.random()


def test_standard_spaces_is_a_fresh_dict():
    before = figure_model("fig2a", 3, 0).to_dict()
    spaces = standard_spaces(3)
    spaces["Z"] = VarSpace("Z", 2, (0.0, 1.0))
    assert standard_spaces(3)["Z"] == VarSpace("Z", 4, (0.0, 1.0, 2.0, 3.0))
    assert unbiased_proxy_model(3, 0)["Z"].space.cardinality == 5
    assert figure_model("fig2a", 3, 0).to_dict() == before


@pytest.mark.parametrize("make", [
    lambda: rank_invariant_bounds_model(3, 0, cate_values=[0.1, 0.2]),
    lambda: rank_invariant_bounds_model(3, 0, cate_values=[0.1]),
    lambda: rank_invariant_bounds_model(2, 0, cate_values=[[0.1, 0.2]]),
    lambda: rank_invariant_bounds_model(2, 0, cate_values=[0.1, np.nan]),
    lambda: unbiased_proxy_model(3, 0, monotone_map=[0, 0, 0]),
    lambda: unbiased_proxy_model(3, 0, monotone_map=[0.0, 1.5, 1.0]),
    lambda: unbiased_proxy_model(3, 0, monotone_map=[0.0, 1.0]),
    lambda: unbiased_proxy_model(2, 0, monotone_map=(-1.0, 0.5)),
    lambda: unbiased_proxy_model(2, 0, figure="fig9z"),
    lambda: random_npsem(FIGURES["fig2a"], standard_spaces(2), 0,
                         kernels={"X": np.full((2, 3), 0.5)}),
    lambda: designed_npsem(FIGURES["fig2a"], standard_spaces(2), 0,
                           kernels={"X": np.full((2, 3), 0.5)}),
], ids=["cate-too-short", "cate-one-value", "cate-matrix", "cate-nan", "map-constant",
        "map-not-monotone", "map-too-short", "map-outside-z-levels", "unknown-figure",
        "random-kernel-shape", "designed-kernel-shape"])
def test_bad_generator_arguments_are_refused(make):
    with pytest.raises(InvalidDistribution):
        make()


@pytest.mark.parametrize("figure", ["fig9z", "fig1b"])
def test_figure_without_a_generator_is_refused(figure):
    m = figure_model("fig2a", 2, 0)
    for make in (lambda: _resolve(figure), lambda: figure_diagnostics(m, figure),
                 lambda: figure_model(figure, 2, 0),
                 lambda: unbiased_proxy_model(2, 0, figure=figure),
                 lambda: rank_invariant_bounds_model(2, 0, figure=figure)):
        with pytest.raises(InvalidDistribution, match=f"no generator for figure '{figure}'"):
            make()


@pytest.mark.parametrize("figure", sorted(FIGURE_DESIGNS))
def test_resolver_reads_the_figure_table(figure):
    # the graph, the point design the draws are screened for, and the CATE
    # screen on every figure but a bounds design's
    dag, d, cate = _resolve(figure)
    design = FIGURE_DESIGNS[figure]
    assert dag is FIGURES[figure]
    assert d is DESIGNS[design.removeprefix("bounds-")]
    assert cate == (not design.startswith("bounds-"))


def _node_kernel(node) -> np.ndarray:
    """f(node | parents) of an encoded node, shape ``(card, *parent_cards)``."""
    return np.stack([(node.table == v) @ node.noise_pmf
                     for v in range(node.space.cardinality)])


@pytest.mark.parametrize("K", [7, 8])
def test_latent_dimension_past_the_smallest_kernel_grid_is_drawn(K):
    # Z and V have K + 1 = 8 or 9 levels, as many as or more than the 8
    # grains of the smallest grid: the grid grows with them, so every column
    # keeps a grain on each level and peaks on one (a binary node's columns
    # differ in height instead, and one may be flat)
    models = []
    for figure in PIPELINE_FIGURES:
        for seed in range(2):
            try:
                models.append((figure, figure_model(figure, K, seed)))
            except InvalidDistribution:
                pass
    assert models
    for figure, m in models:
        for node in m.nodes:
            if node.parents:
                cols = _node_kernel(node).reshape(node.space.cardinality, -1)
                assert cols.min() > 0, (figure, node.space.name)
                assert node.space.cardinality == 2 or np.ptp(cols, axis=0).min() > 1e-9, \
                    (figure, node.space.name)
        identify, axes = PIPELINES[FIGURE_DESIGNS[figure]]
        rep, truth = estimands(identify(observed_joint(m).reorder(axes), K)), effects(m)
        np.testing.assert_allclose([rep.ate, rep.att, rep.atu],
                                   [truth["ate"], truth["att"], truth["atu"]],
                                   rtol=0, atol=1e-6)
        np.testing.assert_allclose(np.sort(rep.beta), np.sort(truth["cate"]),
                                   rtol=0, atol=1e-6)
