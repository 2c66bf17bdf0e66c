"""Seeded random structural models for every builtin figure graph.

Two construction routes:

* generic nodes get a random noise pmf (Dirichlet weights) and a random
  *onto* structural table per parent configuration, which induces generic
  strictly-random conditional kernels with a compact noise space;
* nodes whose conditional law must hit exact targets (unbiased proxy
  means, designed outcome means) are built from an explicit kernel via an
  inverse-CDF encoding whose noise levels refine every parent
  configuration's CDF breakpoints, so the encoded model reproduces the
  kernel exactly.

Every figure variable has a cardinality fixed by the latent dimension K
(:func:`standard_spaces`), and a grid-quantized kernel's grid grows with
its node's level count, so any K can be drawn.  Each generator resolves
its figure once (:func:`_resolve`): to its graph, the design its draws are
screened for and whether the oracle's CATE gap is screened too (not for a
bounds design).  All three share one draw loop, which screens draws for
that design and never reads a figure name: a draw failing the rank /
distinguishability / stratum-mass diagnostics is discarded and redrawn
from the next attempt's seed, at most ``MAX_TRIES`` times, so every
fixture this module hands out is numerically well-posed for its pipeline.
The screens read K off the W axis.  A generator works out what depends on
the graph alone once per call: each node's parents, their cardinalities
and how its kernel is drawn (:func:`_kernel_plan`), so a redraw only draws.  A
draw is its kernels, one per node, drawn in topological order.  The
diagnostics read one margin of the kernels' product, over (stratum, W, Z,
V, signal), summed straight from the kernels by one ``einsum``, and screen
every stratum of it in one batched pass.  A draw is screened as soon as
the kernels drawn so far hold what a screen reads, so a draw that fails
the column gap stops before its later kernels; only the draw that passes
every screen is drawn to the end and encoded into a model, for the
oracle's CATE gap and to be handed out.  Kernels take their random draws
in the order of a column-by-column loop, gather them in Python lists and
make one array per kernel, so a seed always gives the same model.
"""

from __future__ import annotations

import math
import zlib
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import lru_cache, partial

from ._np import np
from .errors import InvalidDistribution, ZeroConditioningCell
from .graphs import DESIGNS, FIGURES, Dag, Design
from .prob import VarSpace, marginalize
from .scm import NodeSpec, Npsem, _check_cells, effects, observable_joint
from .tolerances import INPUT_NEG_TOL, MASS_TOL

MAX_TRIES = 100


def _derive(*parts) -> list[int]:
    """Deterministic seed material from mixed str/int parts."""
    return [zlib.crc32(p.encode()) if isinstance(p, str) else int(p) & 0xFFFFFFFF
            for p in parts]


# ---------------------------------------------------------------------------
# structural-table construction


def random_onto_table(rng: np.random.Generator, shape: tuple[int, ...],
                      card: int, noise_card: int) -> np.ndarray:
    """Random table whose every parent-config row covers all node values."""
    rows = int(np.prod(shape, dtype=int)) if shape else 1
    table = np.empty((rows, noise_card), dtype=np.int64)
    for r in range(rows):
        row = np.concatenate([np.arange(card),
                              rng.integers(0, card, size=noise_card - card)])
        rng.shuffle(row)
        table[r] = row
    return table.reshape(shape + (noise_card,))


def encode_kernel(kernel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact (table, noise pmf) realization of a conditional kernel.

    ``kernel`` has shape ``(card, *parent_cards)``; the shared noise's level
    boundaries are the union of every parent configuration's CDF
    breakpoints, so each conditional law is reproduced exactly and the
    coupling across parent configurations is comonotone.
    """
    card = kernel.shape[0]
    cols = kernel.reshape(card, -1)
    if cols.min() < 0 or np.abs(cols.sum(axis=0) - 1.0).max() > MASS_TOL:
        raise InvalidDistribution("kernel columns must be pmfs")
    cums = np.cumsum(cols, axis=0)
    cums[-1, :] = 1.0
    # the distinct breakpoints inside (0, 1): sort, drop left-neighbour repeats
    flat = np.sort(cums[:-1], axis=None)
    keep = (flat > 1e-15) & (flat < 1.0 - 1e-15)
    keep[1:] &= flat[1:] != flat[:-1]
    edges = np.concatenate(([0.0], flat[keep], [1.0]))
    pmf = edges[1:] - edges[:-1]
    mids = (edges[:-1] + edges[1:]) / 2.0
    # each column is sorted, so counting its entries below a midpoint gives
    # the left insertion point; every midpoint is below the last entry, 1
    table = (cums.T[:, :, None] < mids).sum(axis=1)
    return table.reshape(kernel.shape[1:] + (pmf.size,)), pmf


def random_npsem(dag: Dag, spaces: dict[str, VarSpace], seed: int,
                 kernels: dict[str, np.ndarray] | None = None) -> Npsem:
    """Random model on ``dag``, whose latent node is ``W``; nodes listed in
    ``kernels`` are encoded exactly."""
    rng = np.random.default_rng(seed)
    kernels = kernels or {}
    specs = []
    for name in dag.topological_order():
        space = spaces[name]
        parents = dag.parents(name)
        parent_cards = tuple(spaces[p].cardinality for p in parents)
        if name in kernels:
            kern = np.asarray(kernels[name], dtype=float)
            if kern.shape != (space.cardinality,) + parent_cards:
                raise InvalidDistribution(f"kernel for {name} has shape {kern.shape}")
            specs.append(NodeSpec(space, parents, *encode_kernel(kern)))
        elif not parents:
            pmf = rng.dirichlet(np.ones(space.cardinality))
            specs.append(NodeSpec(space, (), np.arange(space.cardinality, dtype=np.int64),
                                  pmf))
        else:
            nc = max(4, 2 * space.cardinality)
            pmf = rng.dirichlet(np.ones(nc))
            table = random_onto_table(rng, parent_cards, space.cardinality, nc)
            specs.append(NodeSpec(space, parents, table, pmf))
    return Npsem(tuple(specs), ("W",))


# ---------------------------------------------------------------------------
# spaces and figure designs


def standard_spaces(K: int) -> dict[str, VarSpace]:
    """The figure variables, with levels 0, 1, ...: |W| = K, |X| = 2,
    |Y| = |C| = 3 and |Z| = |V| = K + 1.  The dict is the caller's own."""
    return dict(_standard_spaces(K))


@lru_cache(maxsize=16)
def _standard_spaces(K: int) -> tuple[tuple[str, VarSpace], ...]:
    cards = {"W": K, "X": 2, "Y": 3, "Z": K + 1, "V": K + 1, "C": 3}
    return tuple((n, VarSpace(n, c, tuple(float(i) for i in range(c)))) for n, c in cards.items())


# ---------------------------------------------------------------------------
# well-separated kernels for figure models

def separated_kernel(rng: np.random.Generator, card: int,
                     parent_cards: tuple[int, ...], sep_axis: int,
                     grains: int) -> np.ndarray:
    """Grid-quantized conditional kernel with strongly distinct columns
    along ``sep_axis``.

    Each column concentrates a large block of probability on a level that
    cycles with the separated parent (binary nodes use distinct block
    heights instead), plus a small random remainder; every level keeps at
    least one grain, so no conditional cell is empty.  Quantizing to a
    shared ``1/grains`` grid keeps the exact noise encoding small: the CDF
    breakpoints of all parent configurations land on the same grid.  The
    grain counts are collected column by column, for each configuration of
    the other parents in row-major order, into one array at the end.
    """
    k_sep = parent_cards[sep_axis]
    others = tuple(parent_cards[:sep_axis]) + tuple(parent_cards[sep_axis + 1:])
    spare = grains - card
    top = min(3, max(spare - 2, 0))
    cols = []
    for _ in range(math.prod(others)):
        if card == 2:
            heights = (rng.choice(grains - 1, size=k_sep, replace=False) + 1).tolist()
            cols += ([grains - h, h] for h in heights)
            continue
        start = int(rng.integers(card))
        for w in range(k_sep):
            col = [1] * card
            sprinkle = int(rng.integers(0, top + 1))
            col[(start + w) % card] += spare - sprinkle
            for _ in range(sprinkle):
                col[int(rng.integers(card))] += 1
            cols.append(col)
    # (other parents, separated parent, level) -> (level, parents in order)
    n = len(others)
    counts = np.array(cols, dtype=float).reshape(others + (k_sep, card))
    return counts.transpose((n + 1, *range(sep_axis), n, *range(sep_axis, n))) / grains


def _mean_spread_kernel(rng: np.random.Generator, levels: np.ndarray,
                        parent_cards: tuple[int, ...],
                        sep_axis: int) -> np.ndarray:
    """Continuous outcome kernel whose conditional means are stratified
    across the separated parent, so latent-state effects never tie.  Per
    block of the separated parent the draws are one permutation, then per
    column one uniform and one flat Dirichlet draw.  Both are taken as
    ``Generator.uniform`` and ``Generator.dirichlet`` take them: a scaled
    ``random()``, and standard exponentials times the reciprocal of their
    sequential sum."""
    k_sep = parent_cards[sep_axis]
    others = parent_cards[:sep_axis] + parent_cards[sep_axis + 1:]
    lo, hi = min(levels.tolist()) + 0.25, max(levels.tolist()) - 0.25
    means, exps = [], []
    for _ in range(math.prod(others)):
        for offset in rng.permutation(k_sep).tolist():
            spread = 0.15 + (0.85 - 0.15) * rng.random()
            means.append(lo + (offset + spread) * (hi - lo) / k_sep)
            exps.append(rng.standard_exponential(levels.size))
    exps = np.array(exps)
    qs = exps * (1.0 / exps.cumsum(axis=1)[:, -1:])
    cols = _pmfs_with_means(levels, np.array(means), qs)
    # (level, other parents, separated parent) -> (level, parents in order)
    n = len(others)
    cols = cols.reshape((levels.size,) + others + (k_sep,))
    return cols.transpose((0, *range(1, sep_axis + 1), n + 1, *range(sep_axis + 1, n + 1)))


#: a drawn model before encoding: per node in topological order, its space,
#: its parents and its kernel ``f(node | parents)`` of shape ``(card, *parent_cards)``
Kernels = tuple[tuple[VarSpace, tuple[str, ...], np.ndarray], ...]

#: how a draw makes its kernels: per node in topological order, its space,
#: its parents, its kernel's shape and the function of the draw's generator
#: that draws the kernel, or None for a kernel the caller gives
KernelPlan = tuple[tuple[VarSpace, tuple[str, ...], tuple[int, ...], Callable | None], ...]


def _kernel_plan(dag: Dag, spaces: dict[str, VarSpace], given=()) -> KernelPlan:
    """The plan of :func:`_designed_kernels` on ``dag``, where the nodes in
    ``given`` take a kernel from the caller: it depends on the graph and the
    spaces alone, so a generator works it out once for all its redraws.  A
    screened draw may stop before its last kernel, so the factual joint
    passes the oracle's cell guard here, before anything is drawn.  A node
    with ``card`` levels gets a grid of at least ``2 * card - 6`` grains, so
    its separated kernel always has grains to spare past one per level."""
    _check_cells(math.prod(spaces[n].cardinality for n in dag.nodes), "the factual joint")
    plan = []
    for name in dag.topological_order():
        space = spaces[name]
        parents = dag.parents(name)
        parent_cards = tuple(spaces[p].cardinality for p in parents)
        sep_axis = parents.index("W") if "W" in parents else 0
        if name in given:
            draw = None
        elif not parents:
            draw = partial(np.random.Generator.dirichlet, alpha=np.full(space.cardinality, 4.0))
        elif name == "Y" and set(parents) == {"X", "W"}:
            draw = partial(_mean_spread_kernel, levels=np.asarray(space.levels),
                           parent_cards=parent_cards, sep_axis=sep_axis)
        else:
            grains = max(2 * space.cardinality - 6,
                         12 if name == "Y" else 8 if space.cardinality >= 4
                         else max(6, parent_cards[sep_axis] + 2))
            draw = partial(separated_kernel, card=space.cardinality,
                           parent_cards=parent_cards, sep_axis=sep_axis, grains=grains)
        plan.append((space, parents, (space.cardinality,) + parent_cards, draw))
    return tuple(plan)


def _draw_kernels(plan: KernelPlan, seed, kernels: dict[str, np.ndarray] | None = None):
    """The kernels of ``plan`` drawn from ``seed``, yielded one node at a
    time, with the caller's ``kernels`` for the nodes the plan leaves to
    them: a draw the screens refuse stops drawing where they refuse it."""
    rng = np.random.default_rng(seed)
    for space, parents, shape, draw in plan:
        if draw is None:
            kern = np.asarray(kernels[space.name], dtype=float)
            if kern.shape != shape:
                raise InvalidDistribution(f"kernel for {space.name} has shape {kern.shape}")
        else:
            kern = draw(rng)
        yield space, parents, kern


def _designed_kernels(dag: Dag, spaces: dict[str, VarSpace], seed: int,
                      kernels: dict[str, np.ndarray] | None = None) -> Kernels:
    """The kernels :func:`designed_npsem` encodes, drawn from ``seed``."""
    kernels = kernels or {}
    return tuple(_draw_kernels(_kernel_plan(dag, spaces, kernels), seed, kernels))


def _encode(nodes: Kernels, latent) -> Npsem:
    """The model with the drawn kernels: a root's pmf is its noise, every
    other node goes through the exact :func:`encode_kernel`."""
    return Npsem(tuple(
        NodeSpec(space, parents, *encode_kernel(kern)) if parents else
        NodeSpec(space, (), np.arange(space.cardinality, dtype=np.int64), kern)
        for space, parents, kern in nodes), tuple(latent))


def _kernel_margin(nodes: Kernels, keep: tuple[str, ...]) -> np.ndarray:
    """The joint of the drawn ``nodes``, all of a draw's or the ones drawn
    so far (an ancestral set either way), summed down to the nodes ``keep``
    in that order by one ``einsum`` straight from their kernels.  The joint
    is never built, but its size passes the oracle's cell guard first, and
    the margin passes the checks of a built :class:`~triproxy.prob.ProbTensor`:
    finite, non-negative up to round-off and of unit mass, then rescaled."""
    _check_cells(math.prod(space.cardinality for space, _, _ in nodes), "the factual joint")
    axis = {space.name: i for i, (space, _, _) in enumerate(nodes)}
    operands = []
    for space, parents, kern in nodes:
        operands += [kern, [axis[space.name], *(axis[p] for p in parents)]]
    margin = np.einsum(*operands, [axis[n] for n in keep])
    mass = margin.sum()            # not finite when an entry is not
    if not abs(mass - 1.0) <= MASS_TOL or margin.min() < -INPUT_NEG_TOL:
        raise InvalidDistribution(f"the drawn kernels' product has mass {float(mass)!r} "
                                  f"and least entry {float(margin.min())!r}")
    return np.maximum(margin, 0.0) / mass


def designed_npsem(dag: Dag, spaces: dict[str, VarSpace], seed: int,
                   kernels: dict[str, np.ndarray] | None = None) -> Npsem:
    """Random model whose kernels are built for well-posed identification.

    Every non-root node separates strongly across its latent-side parent,
    keeping proxy kernels complete and signal columns distinct with high
    probability; nodes listed in ``kernels`` take that kernel instead.
    Every kernel is encoded exactly, and ``W`` is the latent node.
    """
    return _encode(_designed_kernels(dag, spaces, seed, kernels), ("W",))


FIGURE_DESIGNS: dict[str, str] = {
    "fig1a": "outcome", "fig1c": "cond-treatment", "fig1d": "auxiliary",
    "fig2a": "outcome", "fig2b": "outcome", "fig2c": "outcome",
    "fig3a": "treatment", "fig3b": "treatment", "fig3c": "treatment",
    "fig4a": "cond-treatment", "fig4b": "cond-treatment",
    "fig5a": "auxiliary", "fig5b": "auxiliary", "fig5c": "auxiliary",
    "fig6a": "bounds-outcome", "fig6b": "bounds-outcome", "fig6c": "bounds-outcome",
    "fig7a": "bounds-auxiliary", "fig7b": "bounds-auxiliary",
}

PIPELINE_FIGURES = ("fig2a", "fig2b", "fig2c", "fig3a", "fig3b", "fig3c",
                    "fig4a", "fig4b", "fig5a", "fig5b", "fig5c")


#: the least column gap a draw keeps, in the early screen as in the last
_MIN_GAP = 0.08


@dataclass(frozen=True)
class FixtureDiagnostics:
    sv_ratio: float
    column_gap: float
    stratum_mass: float
    cate_gap: float

    def passes(self) -> bool:
        return (self.sv_ratio >= 0.06 and self.column_gap >= _MIN_GAP
                and self.stratum_mass >= 0.04 and self.cate_gap >= 1e-3)


def _resolve(figure: str) -> tuple[Dag, Design, bool]:
    """The graph of a figure that has a generator, the design its models
    are screened for (a bounds design's point design) and whether the CATE
    screen applies: a bounds design reports no stratum-effect distribution,
    so its figures skip it.  A figure without a generator is refused."""
    if figure not in FIGURE_DESIGNS:
        raise InvalidDistribution(f"no generator for figure {figure!r}")
    design = FIGURE_DESIGNS[figure]
    point = design.removeprefix("bounds-")
    return FIGURES[figure], DESIGNS[point], point == design


def _screen_axes(d: Design) -> tuple[str, ...]:
    """The axes, in order, of the margin :func:`_screens` reads."""
    return ((d.stratum,) if d.stratum else ()) + ("W", "Z", "V", d.signal)


def _screens(t: np.ndarray, d: Design) -> FixtureDiagnostics:
    """Rank, column-gap and mass screens of the design ``d`` on ``t``, the
    margin of a model's factual joint over :func:`_screen_axes`;
    ``cate_gap`` is infinite.

    Within each stratum (each level of the stratum axis, or the whole
    joint) the Z|W kernel and the W-V matrix must have rank K, the number
    of W levels, the signal's columns given W must differ, and the W
    marginal must keep mass, as must V's when V is a second-stage axis; so
    must the stratum axis itself.  Each family of per-stratum matrices is
    one stacked array of the margin, screened by one batched SVD or one
    pairwise column comparison.  A stratum, or a W cell within one, without
    mass raises :class:`~triproxy.errors.ZeroConditioningCell`.
    """
    t = t.reshape((-1,) + t.shape[-4:])                  # (stratum, W, Z, V, signal)
    K = t.shape[1]
    w = _w_margin(t, d)
    strata = w.sum(axis=1)
    mass = np.inf if d.stratum is None else float(strata.min())
    sv = np.inf                    # of f(Z|W) and f(W, V); ratios ignore stratum mass
    for mats in (t.sum(axis=(3, 4)) / w[:, :, None], t.sum(axis=(2, 4))):
        vals = np.linalg.svd(mats, compute_uv=False)
        ratio = vals[:, K - 1] / vals[:, 0] if vals.shape[1] >= K else np.zeros(1)
        sv = min(sv, float(ratio.min()))
    gap = _column_gap(t.sum(axis=(2, 3)), w)
    mass = min(mass, float((w / strata[:, None]).min()))
    if "V" in d.second_stage:
        mass = min(mass, float((t.sum(axis=(1, 2, 4)) / strata[:, None]).min()))
    return FixtureDiagnostics(sv, gap, mass, np.inf)


def _w_margin(t: np.ndarray, d: Design) -> np.ndarray:
    """The (stratum, W) margin of ``t``, whose first two axes are those; a
    W cell without mass in some stratum raises
    :class:`~triproxy.errors.ZeroConditioningCell`."""
    w = t.sum(axis=tuple(range(2, t.ndim)))
    if not (w > 0).all():
        empty = np.argwhere(w <= 0)
        raise ZeroConditioningCell(f"W = {empty[0, 1]} has zero probability in "
                                   f"stratum {empty[0, 0]} of {d.stratum or 'the joint'}")
    return w


def _column_gap(t: np.ndarray, w: np.ndarray) -> float:
    """The least max-norm gap between the signal's columns W = i and W = j,
    i != j, in any stratum: ``t`` is the (stratum, W, signal) margin and
    ``w`` its (stratum, W) margin."""
    if w.shape[1] < 2:
        return np.inf
    cols = t / w[:, :, None]
    pairs = np.abs(cols[:, :, None] - cols[:, None]).max(axis=3)
    diagonal = np.arange(w.shape[1])
    pairs[:, diagonal, diagonal] = np.inf
    return float(pairs.min())


def _cate_screened(screens: FixtureDiagnostics, m: Npsem, cate: bool) -> FixtureDiagnostics:
    """``screens`` with the least gap between two latent states' CATEs from
    the cross-world oracle, or a NaN gap when the screens fail, since such a
    draw is refused whatever its CATE gap.  Without the CATE screen the gap
    stays infinite."""
    if not cate:
        return screens
    if not screens.passes():
        return replace(screens, cate_gap=np.nan)
    cate = effects(m)["cate"]
    return replace(screens, cate_gap=float(min(
        (abs(a - b) for i, a in enumerate(cate) for b in cate[i + 1:]), default=np.inf)))


def figure_diagnostics(m: Npsem, figure: str) -> FixtureDiagnostics:
    """The screens of :func:`_screens` on ``m``'s observable joint, then
    the CATE gap of :func:`_cate_screened`: NaN unless the screens pass at
    :meth:`FixtureDiagnostics.passes`'s thresholds, infinite on a bounds
    design's figure."""
    _, d, cate = _resolve(figure)
    joint, axes = observable_joint(m), _screen_axes(d)
    screens = _screens(marginalize(joint, set(joint.names) - set(axes)).reorder(axes).values, d)
    return _cate_screened(screens, m, cate)


def _screened_draw(draw, d: Design, cate: bool, what: str) -> Npsem:
    """The model of the first of ``draw(0)``, ``draw(1)``, ... up to
    ``MAX_TRIES`` drawn kernels whose diagnostics for the design ``d`` pass,
    the oracle's CATE gap included when ``cate`` is set.

    A draw's kernels come one node at a time in topological order, so the
    nodes drawn so far are an ancestral set and the product of their
    kernels is their joint.  A draw is screened as soon as that product
    holds what a screen reads: the column gap, the screen most redraws
    fail, once the stratum axis, W and the signal are drawn (when a screen
    axis is still to come), then all the screens once every screen axis is
    drawn.  The kernels after those are drawn, and the draw encoded, only
    for a draw that passes, for the oracle's CATE gap and to be handed out.
    """
    axes = _screen_axes(d)
    gap_axes = ((d.stratum,) if d.stratum else ()) + ("W", d.signal)
    for attempt in range(MAX_TRIES):
        draws, nodes = iter(draw(attempt)), []
        _draw_up_to(draws, nodes, gap_axes)
        if not set(axes) <= {space.name for space, _, _ in nodes}:
            t = _kernel_margin(nodes, gap_axes)
            t = t.reshape((-1,) + t.shape[-2:])             # (stratum, W, signal)
            if not _column_gap(t, _w_margin(t, d)) >= _MIN_GAP:
                continue
        _draw_up_to(draws, nodes, axes)
        screens = _screens(_kernel_margin(nodes, axes), d)
        if not screens.passes():
            continue
        m = _encode((*nodes, *draws), ("W",))
        if _cate_screened(screens, m, cate).passes():
            return m
    raise InvalidDistribution(f"no well-posed {what} in {MAX_TRIES} tries")


def _draw_up_to(draws, nodes: list, names) -> None:
    """Append nodes from the iterator ``draws`` to ``nodes`` until ``nodes``
    holds every node in ``names``."""
    while not set(names) <= {space.name for space, _, _ in nodes}:
        nodes.append(next(draws))


def figure_model(figure: str, K: int, seed: int) -> Npsem:
    """Seeded random model on a builtin figure graph, redrawn until the
    intended design's diagnostics pass."""
    dag, d, cate = _resolve(figure)
    plan = _kernel_plan(dag, standard_spaces(K))
    return _screened_draw(lambda attempt: _draw_kernels(plan, _derive(figure, K, seed, attempt)),
                          d, cate, f"draw for {figure} K={K} seed={seed}")


# ---------------------------------------------------------------------------
# designed kernels (exact means)


def _pmfs_with_means(levels: np.ndarray, means: np.ndarray,
                     qs: np.ndarray) -> np.ndarray:
    """Columns ``(levels, means)`` of pmfs over ``levels`` with the exact
    requested ``means``, one per row of the Dirichlet draws ``qs``."""
    values = levels.tolist()
    lo, hi = min(values), max(values)
    # mix each q with a two-point law at the extreme levels; the mixture weight
    # keeps the two-point mean feasible, so the result is exact.  The weights
    # are per-row scalars, so they are worked out in Python floats, which
    # round as numpy's elementwise operations do
    keep, add_hi, add_lo = [], [], []
    for mean, q in zip(means.tolist(), qs):
        if not lo + 1e-9 < mean < hi - 1e-9:
            raise InvalidDistribution(f"mean {mean} outside ({lo}, {hi})")
        # row by row: a stacked product can round differently in the last bit
        mq = float(q @ levels)
        dist = abs(mean - mq)
        lam = min(0.95, max(0.35, dist / (dist + min(mean - lo, hi - mean)) + 0.05))
        w_hi = ((mean - (1 - lam) * mq) / lam - lo) / (hi - lo)
        keep.append(1 - lam)
        add_hi.append(lam * w_hi)
        add_lo.append(lam * (1 - w_hi))
    p = np.array(keep)[:, None] * qs
    p[:, values.index(hi)] += add_hi
    p[:, values.index(lo)] += add_lo
    if p.min() < -1e-12:
        raise InvalidDistribution("could not realize requested mean")
    p = np.maximum(p, 0.0)
    return (p / p.sum(axis=1, keepdims=True)).T


def unbiased_proxy_model(K: int, seed: int, figure: str = "fig2a",
                         monotone_map=None) -> Npsem:
    """Figure model whose Z proxy is conditionally mean-unbiased for W.

    ``monotone_map`` (per-state target means) switches to the strictly
    monotone-garbling construction; default targets are W's own levels.
    """
    dag, d, cate = _resolve(figure)
    spaces = standard_spaces(K)
    z_levels = np.arange(-1.0, K + 1.0)  # wide enough to realize every mean
    spaces["Z"] = VarSpace("Z", z_levels.size, tuple(z_levels))
    if monotone_map is None:
        targets = spaces["W"].level_values()
    else:
        targets = np.asarray(monotone_map, dtype=float)
        if targets.shape != (K,):
            raise InvalidDistribution(f"monotone_map must hold {K} target means, one per W state")
        steps = np.diff(targets)
        if not ((steps > 0).all() or (steps < 0).all()):
            raise InvalidDistribution("monotone_map must be strictly increasing or decreasing")
    if targets.min() <= z_levels.min() or targets.max() >= z_levels.max():
        raise InvalidDistribution("target means must lie inside the Z level range")
    plan = _kernel_plan(dag, spaces, given={"Z"})
    flat = np.ones(z_levels.size)

    def draw(attempt: int) -> Kernels:
        rng = np.random.default_rng(_derive(figure, K, seed, attempt, "ub"))
        z_kernel = _pmfs_with_means(z_levels, targets, rng.dirichlet(flat, size=targets.size))
        return _draw_kernels(plan, _derive(figure, K, seed, attempt, "rest"), {"Z": z_kernel})

    return _screened_draw(draw, d, cate, "unbiased-proxy draw")


def rank_invariant_bounds_model(K: int, seed: int, figure: str = "fig6a",
                                constant_cate: bool = False,
                                cate_values=None) -> Npsem:
    """Bounds-design model with monotone (or constant) CATE built in.

    The outcome table is driven by per-(w, x) target means with
    E[Y(0)|W=w] increasing in w and the CATE weakly increasing (rank
    invariance); for fig7* the targets vary per v and the outcome ignores
    C so the per-v CATE structure is explicit.  ``cate_values``, one per
    latent state, replaces the drawn CATE.
    """
    dag, d, cate = _resolve(figure)
    spaces = standard_spaces(K)
    y_levels = spaces["Y"].level_values()
    lo, hi = y_levels.min() + 0.15, y_levels.max() - 0.15
    flat = np.ones(y_levels.size)
    if cate_values is not None:
        cate_values = np.asarray(cate_values, dtype=float)
        if cate_values.shape != (K,) or not np.isfinite(cate_values).all():
            raise InvalidDistribution(f"cate_values must hold {K} finite effects, "
                                      f"one per W state")
    auxiliary = figure.startswith("fig7")
    n_v = spaces["V"].cardinality if auxiliary else 1
    y_parents = ("W", "V", "X") if auxiliary else ("W", "X")
    # Y keeps only its edges from y_parents: dropping edges is always a valid
    # exclusion under the same graph
    dag = Dag(dag.nodes, tuple((a, b) for a, b in dag.edges if b != "Y" or a in y_parents))
    # from (y, *y_parents) to Y's parents in the graph's edge order
    y_axes = (0,) + tuple(y_parents.index(p) + 1 for p in dag.parents("Y"))
    plan = _kernel_plan(dag, spaces, given={"Y"})

    def draw(attempt: int) -> Kernels:
        rng = np.random.default_rng(_derive(figure, K, seed, attempt, "ri"))
        # per V level (one without V), the targets, then one draw per (w, x)
        means, qs = [], []
        for _ in range(n_v):
            base = np.sort(rng.uniform(lo, lo + 0.45 * (hi - lo), size=K))
            if cate_values is not None:
                effect = cate_values
            elif constant_cate:
                effect = np.full(K, rng.uniform(0.1, 0.3))
            else:
                effect = np.sort(rng.uniform(0.05, 0.45 * (hi - lo), size=K))
            means.append(np.stack([base, base + effect], axis=1))
            qs.append(rng.dirichlet(flat, size=2 * K))
        kern = _pmfs_with_means(y_levels, np.ravel(means), np.concatenate(qs))
        kern = kern.reshape(-1, n_v, K, 2).transpose(0, 2, 1, 3)    # (y, w, v, x)
        y_kernel = kern if auxiliary else kern[:, :, 0]
        return _draw_kernels(plan, _derive(figure, K, seed, attempt, "rest"),
                             {"Y": np.transpose(y_kernel, y_axes)})

    return _screened_draw(draw, d, cate, "rank-invariant draw")
