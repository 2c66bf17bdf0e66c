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
(:func:`standard_spaces`).  All three generators share one screened draw
loop: a draw failing the rank / distinguishability / stratum-mass
diagnostics of the intended design is discarded and redrawn from the next
attempt's seed, at most ``MAX_TRIES`` times, so every fixture this module
hands out is numerically well-posed for its pipeline.  A draw is its
kernels, one per node; the diagnostics screen every stratum of it in one
batched pass over the product of those kernels, its factual joint, and
only the draw that passes is encoded into a model, for the oracle's CATE
gap and to be handed out.  Kernels take their random draws in the order
of a column-by-column loop, so a seed always gives the same model.
"""

from __future__ import annotations

import itertools
import math
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidDistribution, ZeroConditioningCell
from .graphs import DESIGNS, FIGURES, Dag
from .prob import ProbTensor, VarSpace, marginalize
from .scm import NodeSpec, Npsem, _check_cells, effects, observable_joint
from .tolerances import MASS_TOL

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


def node_from_kernel(space: VarSpace, parents, kernel: np.ndarray) -> NodeSpec:
    table, pmf = encode_kernel(kernel)
    return NodeSpec(space, tuple(parents), table, pmf)


def random_npsem(dag: Dag, spaces: dict[str, VarSpace], seed: int,
                 kernels: dict[str, np.ndarray] | None = None,
                 noise_cards: dict[str, int] | None = None) -> Npsem:
    """Random model on ``dag``, whose latent node is ``W``; nodes listed in
    ``kernels`` are encoded exactly."""
    rng = np.random.default_rng(seed)
    kernels = kernels or {}
    noise_cards = noise_cards or {}
    specs = []
    for name in dag.topological_order():
        space = spaces[name]
        parents = dag.parents(name)
        parent_cards = tuple(spaces[p].cardinality for p in parents)
        if name in kernels:
            kern = np.asarray(kernels[name], dtype=float)
            if kern.shape != (space.cardinality,) + parent_cards:
                raise InvalidDistribution(f"kernel for {name} has shape {kern.shape}")
            specs.append(node_from_kernel(space, parents, kern))
        elif not parents:
            pmf = rng.dirichlet(np.ones(space.cardinality))
            specs.append(NodeSpec(space, (), np.arange(space.cardinality, dtype=np.int64),
                                  pmf))
        else:
            nc = noise_cards.get(name, max(4, 2 * space.cardinality))
            pmf = rng.dirichlet(np.ones(nc))
            table = random_onto_table(rng, parent_cards, space.cardinality, nc)
            specs.append(NodeSpec(space, parents, table, pmf))
    return Npsem(tuple(specs), ("W",))


# ---------------------------------------------------------------------------
# spaces and figure designs


def standard_spaces(K: int) -> dict[str, VarSpace]:
    """The figure variables, with levels 0, 1, ...: |W| = K, |X| = 2,
    |Y| = |C| = 3 and |Z| = |V| = K + 1."""
    cards = {"W": K, "X": 2, "Y": 3, "Z": K + 1, "V": K + 1, "C": 3}
    return {n: VarSpace(n, c, tuple(float(i) for i in range(c))) for n, c in cards.items()}


# ---------------------------------------------------------------------------
# well-separated kernels for figure models

def _separated_blocks(kernel: np.ndarray, sep_axis: int):
    """Views ``(level, separated parent)`` of ``kernel``, one per
    configuration of the other parents, in row-major order."""
    cards = kernel.shape[1:]
    other = [range(c) for i, c in enumerate(cards) if i != sep_axis]
    for idx in itertools.product(*other):
        yield kernel[(slice(None),) + idx[:sep_axis] + (slice(None),) + idx[sep_axis:]]


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
    breakpoints of all parent configurations land on the same grid.
    """
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
    lo, hi = levels.min() + 0.25, levels.max() - 0.25
    offsets, spread, exps = [], [], []
    for _ in range(math.prod(others)):
        offsets.append(rng.permutation(k_sep))
        for _ in range(k_sep):
            spread.append(0.15 + (0.85 - 0.15) * rng.random())
            exps.append(rng.standard_exponential(levels.size))
    exps = np.array(exps)
    qs = exps * (1.0 / exps.cumsum(axis=1)[:, -1:])
    means = lo + (np.concatenate(offsets) + spread) * (hi - lo) / k_sep
    cols = _pmfs_with_means(levels, means, qs)
    return np.moveaxis(cols.reshape((levels.size,) + others + (k_sep,)), -1, sep_axis + 1)


#: a drawn model before encoding: per node in topological order, its space,
#: its parents and its kernel ``f(node | parents)`` of shape ``(card, *parent_cards)``
Kernels = tuple[tuple[VarSpace, tuple[str, ...], np.ndarray], ...]


def _designed_kernels(dag: Dag, spaces: dict[str, VarSpace], seed: int,
                      kernels: dict[str, np.ndarray] | None = None) -> Kernels:
    """The kernels :func:`designed_npsem` encodes, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    kernels = kernels or {}
    out = []
    for name in dag.topological_order():
        space = spaces[name]
        parents = dag.parents(name)
        parent_cards = tuple(spaces[p].cardinality for p in parents)
        if name in kernels:
            kern = np.asarray(kernels[name], dtype=float)
            if kern.shape != (space.cardinality,) + parent_cards:
                raise InvalidDistribution(f"kernel for {name} has shape {kern.shape}")
        elif not parents:
            kern = rng.dirichlet(np.full(space.cardinality, 4.0))
        else:
            sep_axis = parents.index("W") if "W" in parents else 0
            if name == "Y" and set(parents) == {"X", "W"}:
                kern = _mean_spread_kernel(rng, np.asarray(space.levels),
                                           parent_cards, sep_axis)
            elif name == "Y":
                kern = separated_kernel(rng, space.cardinality, parent_cards,
                                        sep_axis, grains=12)
            else:
                grains = 8 if space.cardinality >= 4 else max(6, parent_cards[sep_axis] + 2)
                kern = separated_kernel(rng, space.cardinality, parent_cards,
                                        sep_axis, grains)
        out.append((space, parents, kern))
    return tuple(out)


def _encode(nodes: Kernels, latent) -> Npsem:
    """The model with the drawn kernels: a root's pmf is its noise, every
    other node goes through the exact :func:`encode_kernel`."""
    return Npsem(tuple(
        node_from_kernel(space, parents, kern) if parents else
        NodeSpec(space, (), np.arange(space.cardinality, dtype=np.int64), kern)
        for space, parents, kern in nodes), tuple(latent))


def _kernel_joint(nodes: Kernels) -> ProbTensor:
    """Factual joint of every node, the product of the drawn kernels in
    topological order: :func:`~triproxy.scm.observable_joint` of the
    encoded model up to round-off, under the same cell guard and the same
    validation of the result."""
    joint_spaces = tuple(space for space, _, _ in nodes)
    _check_cells(math.prod(s.cardinality for s in joint_spaces), "the factual joint")
    axis = {s.name: i for i, s in enumerate(joint_spaces)}
    operands = []
    for space, parents, kern in nodes:
        operands += [kern, [axis[space.name]] + [axis[p] for p in parents]]
    return ProbTensor.build(joint_spaces,
                            np.einsum(*operands, list(range(len(joint_spaces)))))


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


@dataclass(frozen=True)
class FixtureDiagnostics:
    sv_ratio: float
    column_gap: float
    stratum_mass: float
    cate_gap: float

    def passes(self) -> bool:
        return (self.sv_ratio >= 0.06 and self.column_gap >= 0.08
                and self.stratum_mass >= 0.04 and self.cate_gap >= 1e-3)


def _screens(joint: ProbTensor, figure: str, K: int) -> FixtureDiagnostics:
    """Rank, column-gap and mass screens of a figure model's intended
    design on its factual ``joint``; ``cate_gap`` is infinite.

    The stratum axis and signal are those of the design's entry in
    :data:`~triproxy.graphs.DESIGNS` (a bounds design uses its point
    design's).  Within each stratum (each level of the stratum axis, or the
    whole joint) the Z|W kernel and the W-V matrix must have rank K, the
    signal's columns given W must differ, and the W marginal must keep
    mass, as must V's when V is a second-stage axis; so must the stratum
    axis itself.  The joint is summed once down to (stratum, W, Z, V,
    signal), so each family of per-stratum matrices is one stacked array,
    screened by one batched SVD or one pairwise column comparison.  A
    stratum, or a W cell within one, without mass raises
    :class:`~triproxy.errors.ZeroConditioningCell`.
    """
    d = DESIGNS[FIGURE_DESIGNS[figure].removeprefix("bounds-")]
    order = ((d.stratum,) if d.stratum else ()) + ("W", "Z", "V", d.signal)
    t = marginalize(joint, set(joint.names) - set(order)).reorder(order).values
    t = t.reshape((-1,) + t.shape[-4:])                  # (stratum, W, Z, V, signal)
    w = t.sum(axis=(2, 3, 4))                            # (stratum, W)
    empty = np.argwhere(w <= 0)
    if empty.size:
        raise ZeroConditioningCell(f"W = {empty[0, 1]} has zero probability in "
                                   f"stratum {empty[0, 0]} of {d.stratum or 'the joint'}")
    strata = w.sum(axis=1)
    mass = np.inf if d.stratum is None else float(strata.min())
    sv = np.inf                    # of f(Z|W) and f(W, V); ratios ignore stratum mass
    for mats in (t.sum(axis=(3, 4)) / w[:, :, None], t.sum(axis=(2, 4))):
        vals = np.linalg.svd(mats, compute_uv=False)
        ratio = vals[:, K - 1] / vals[:, 0] if vals.shape[1] >= K else np.zeros(1)
        sv = min(sv, float(ratio.min()))
    gap = np.inf
    if w.shape[1] >= 2:            # between the signal's columns W = i and W = j
        cols = t.sum(axis=(2, 3)) / w[:, :, None]
        pairs = np.abs(cols[:, :, None] - cols[:, None]).max(axis=3)
        upper = np.triu_indices(w.shape[1], 1)
        gap = float(pairs[:, upper[0], upper[1]].min())
    mass = min(mass, float((w / strata[:, None]).min()))
    if "V" in d.second_stage:
        mass = min(mass, float((t.sum(axis=(1, 2, 4)) / strata[:, None]).min()))
    return FixtureDiagnostics(sv, gap, mass, np.inf)


def _with_cate_gap(screens: FixtureDiagnostics, m: Npsem) -> FixtureDiagnostics:
    """``screens`` with the least gap between two latent states' CATEs from
    the cross-world oracle, or a NaN gap when the screens fail, since such a
    draw is refused whatever its CATE gap."""
    if not screens.passes():
        return replace(screens, cate_gap=np.nan)
    cate = effects(m)["cate"]
    return replace(screens, cate_gap=float(min(
        (abs(a - b) for i, a in enumerate(cate) for b in cate[i + 1:]), default=np.inf)))


def figure_diagnostics(m: Npsem, figure: str, K: int,
                       with_cate: bool = True) -> FixtureDiagnostics:
    """The screens of :func:`_screens` on ``m``'s observable joint, then the
    CATE gap from the cross-world oracle.  The oracle runs only when the
    screens pass at :meth:`FixtureDiagnostics.passes`'s thresholds;
    ``cate_gap`` is NaN otherwise, and infinite when ``with_cate`` is false.
    """
    screens = _screens(observable_joint(m), figure, K)
    return _with_cate_gap(screens, m) if with_cate else screens


def _screened_draw(draw, figure: str, K: int, what: str,
                   with_cate: bool = True) -> Npsem:
    """The model of the first of ``draw(0)``, ``draw(1)``, ... up to
    ``MAX_TRIES`` drawn kernels whose diagnostics pass.

    A draw is screened on the product of its kernels, and only a draw that
    passes the screens is encoded, for the oracle's CATE gap and to be
    handed out.
    """
    for attempt in range(MAX_TRIES):
        nodes = draw(attempt)
        screens = _screens(_kernel_joint(nodes), figure, K)
        if not screens.passes():
            continue
        m = _encode(nodes, ("W",))
        if not with_cate or _with_cate_gap(screens, m).passes():
            return m
    raise InvalidDistribution(f"no well-posed {what} in {MAX_TRIES} tries")


def figure_model(figure: str, K: int, seed: int, with_cate_gap: bool = True) -> Npsem:
    """Seeded random model on a builtin figure graph, redrawn until the
    intended design's diagnostics pass."""
    if figure not in FIGURE_DESIGNS:
        raise InvalidDistribution(f"no generator for figure {figure!r}")
    dag = FIGURES[figure]
    spaces = standard_spaces(K)
    return _screened_draw(
        lambda attempt: _designed_kernels(dag, spaces, seed=_derive(figure, K, seed, attempt)),
        figure, K, f"draw for {figure} K={K} seed={seed}", with_cate=with_cate_gap)


# ---------------------------------------------------------------------------
# designed kernels (exact means)


def _pmfs_with_means(levels: np.ndarray, means: np.ndarray,
                     qs: np.ndarray) -> np.ndarray:
    """Columns ``(levels, means)`` of pmfs over ``levels`` with the exact
    requested ``means``, one per row of the Dirichlet draws ``qs``."""
    lo, hi = levels.min(), levels.max()
    outside = ~((lo + 1e-9 < means) & (means < hi - 1e-9))
    if outside.any():
        raise InvalidDistribution(f"mean {means[outside][0]} outside ({lo}, {hi})")
    # row by row: a stacked product can round differently in the last bit
    mq = np.array([q @ levels for q in qs])
    # mix each q with a two-point law at the extreme levels; the mixture weight
    # keeps the two-point mean feasible, so the result is exact
    dist = np.abs(means - mq)
    slack = np.minimum(means - lo, hi - means)
    lam = np.minimum(0.95, np.maximum(0.35, dist / (dist + slack) + 0.05))
    m2 = (means - (1 - lam) * mq) / lam
    p = (1 - lam)[:, None] * qs
    w_hi = (m2 - lo) / (hi - lo)
    p[:, np.argmax(levels)] += lam * w_hi
    p[:, np.argmin(levels)] += lam * (1 - w_hi)
    if p.min() < -1e-12:
        raise InvalidDistribution("could not realize requested mean")
    return (np.clip(p, 0, None) / p.sum(axis=1, keepdims=True)).T


def unbiased_proxy_model(K: int, seed: int, figure: str = "fig2a",
                         monotone_map=None) -> Npsem:
    """Figure model whose Z proxy is conditionally mean-unbiased for W.

    ``monotone_map`` (per-state target means) switches to the strictly
    monotone-garbling construction; default targets are W's own levels.
    """
    dag = FIGURES[figure]
    spaces = dict(standard_spaces(K))
    z_levels = np.arange(-1.0, K + 1.0)  # wide enough to realize every mean
    spaces["Z"] = VarSpace("Z", z_levels.size, tuple(z_levels))
    w_levels = spaces["W"].level_values()
    targets = np.asarray(monotone_map, dtype=float) if monotone_map is not None \
        else w_levels
    if targets.min() <= z_levels.min() or targets.max() >= z_levels.max():
        raise InvalidDistribution("target means must lie inside the Z level range")

    def draw(attempt: int) -> Kernels:
        rng = np.random.default_rng(_derive(figure, K, seed, attempt, "ub"))
        z_kernel = _pmfs_with_means(z_levels, targets, rng.dirichlet(
            np.ones(z_levels.size), size=targets.size))
        return _designed_kernels(dag, spaces, seed=_derive(figure, K, seed, attempt, "rest"),
                                 kernels={"Z": z_kernel})

    return _screened_draw(draw, figure, K, "unbiased-proxy draw")


def rank_invariant_bounds_model(K: int, seed: int, figure: str = "fig6a",
                                constant_cate: bool = False,
                                cate_values=None) -> Npsem:
    """Bounds-design model with monotone (or constant) CATE built in.

    The outcome table is driven by per-(w, x) target means with
    E[Y(0)|W=w] increasing in w and the CATE weakly increasing (rank
    invariance); for fig7* the targets vary per v and the outcome ignores
    C so the per-v CATE structure is explicit.
    """
    dag = FIGURES[figure]
    spaces = standard_spaces(K)
    y_levels = spaces["Y"].level_values()
    auxiliary = figure.startswith("fig7")

    def draw(attempt: int) -> Kernels:
        rng = np.random.default_rng(_derive(figure, K, seed, attempt, "ri"))
        lo, hi = y_levels.min() + 0.15, y_levels.max() - 0.15

        def monotone_targets():
            base = np.sort(rng.uniform(lo, lo + 0.45 * (hi - lo), size=K))
            if cate_values is not None:
                cate = np.asarray(cate_values, dtype=float)
            elif constant_cate:
                cate = np.full(K, rng.uniform(0.1, 0.3))
            else:
                cate = np.sort(rng.uniform(0.05, 0.45 * (hi - lo), size=K))
            return base, cate

        # per V level (one without V), the targets, then one draw per (w, x)
        n_v = spaces["V"].cardinality if auxiliary else 1
        means, qs = [], []
        for _ in range(n_v):
            base, cate = monotone_targets()
            means.append(np.stack([base, base + cate], axis=1))
            qs.append(rng.dirichlet(np.ones(y_levels.size), size=2 * K))
        kern = _pmfs_with_means(y_levels, np.ravel(means), np.concatenate(qs))
        kern = kern.reshape(-1, n_v, K, 2).transpose(0, 2, 1, 3)    # (y, w, v, x)
        if auxiliary:
            y_parents, y_kernel = ("W", "V", "X"), kern
        else:
            y_parents, y_kernel = ("W", "X"), kern[:, :, 0]

        dag_mod = _with_outcome_parents(dag, y_parents)
        actual = dag_mod.parents("Y")
        perm = tuple(y_parents.index(p) + 1 for p in actual)
        y_kernel = np.transpose(y_kernel, (0,) + perm)
        return _designed_kernels(dag_mod, spaces,
                                 seed=_derive(figure, K, seed, attempt, "rest"),
                                 kernels={"Y": y_kernel})

    return _screened_draw(draw, figure, K, "rank-invariant draw", with_cate=False)


def _with_outcome_parents(dag: Dag, parents: tuple[str, ...]) -> Dag:
    """Restrict Y's incoming edges to ``parents`` (dropping edges is always
    a valid exclusion under the same graph)."""
    edges = tuple((a, b) for a, b in dag.edges if b != "Y" or a in parents)
    return Dag(dag.nodes, edges)
