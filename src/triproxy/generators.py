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

Draws failing the rank / distinguishability / stratum-mass diagnostics of
the intended design are discarded and redrawn (bounded retry loop), so
every fixture this module hands out is numerically well-posed for its
pipeline.  The diagnostics screen every stratum of a draw in one batched
pass over the observable joint, and the redraws on one graph share its
topological order and the exact oracle's elimination plan.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDistribution, ZeroConditioningCell
from .graphs import FIGURES, Dag
from .prob import VarSpace, marginalize
from .scm import NodeSpec, Npsem, effects, observable_joint

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
    if cols.min() < 0 or np.abs(cols.sum(axis=0) - 1.0).max() > 1e-10:
        raise InvalidDistribution("kernel columns must be pmfs")
    cums = np.cumsum(cols, axis=0)
    cums[-1, :] = 1.0
    breaks = np.unique(cums[:-1])
    breaks = breaks[(breaks > 1e-15) & (breaks < 1.0 - 1e-15)]
    edges = np.concatenate([[0.0], breaks, [1.0]])
    pmf = np.diff(edges)
    mids = (edges[:-1] + edges[1:]) / 2.0
    # each column is sorted, so counting its entries below a midpoint gives
    # the left insertion point; every midpoint is below the last entry, 1
    table = (cums.T[:, :, None] < mids).sum(axis=1)
    return table.reshape(kernel.shape[1:] + (pmf.size,)), pmf


def node_from_kernel(space: VarSpace, parents, kernel: np.ndarray) -> NodeSpec:
    table, pmf = encode_kernel(kernel)
    return NodeSpec(space, tuple(parents), table, pmf)


def random_npsem(dag: Dag, spaces: dict[str, VarSpace], seed: int,
                 latent=(), kernels: dict[str, np.ndarray] | None = None,
                 noise_cards: dict[str, int] | None = None) -> Npsem:
    """Random model on ``dag``; nodes listed in ``kernels`` are encoded exactly."""
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
    return Npsem(tuple(specs), tuple(latent))


# ---------------------------------------------------------------------------
# spaces and figure designs


def standard_spaces(K: int, y_card: int = 3, proxy_card: int | None = None,
                    c_card: int = 3) -> dict[str, VarSpace]:
    proxy_card = proxy_card or K + 1
    return {
        "W": VarSpace("W", K, tuple(float(i) for i in range(K))),
        "X": VarSpace("X", 2, (0.0, 1.0)),
        "Y": VarSpace("Y", y_card, tuple(float(i) for i in range(y_card))),
        "Z": VarSpace("Z", proxy_card, tuple(float(i) for i in range(proxy_card))),
        "V": VarSpace("V", proxy_card, tuple(float(i) for i in range(proxy_card))),
        "C": VarSpace("C", c_card, tuple(float(i) for i in range(c_card))),
    }


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
    across the separated parent, so latent-state effects never tie."""
    k_sep = parent_cards[sep_axis]
    out = np.empty((levels.size,) + tuple(parent_cards))
    lo, hi = levels.min() + 0.25, levels.max() - 0.25
    for block in _separated_blocks(out, sep_axis):
        offsets = rng.permutation(k_sep)
        for w in range(k_sep):
            mean = lo + (offsets[w] + rng.uniform(0.15, 0.85)) * (hi - lo) / k_sep
            block[:, w] = _pmf_with_mean(levels, mean, rng)
    return out


def designed_npsem(dag: Dag, spaces: dict[str, VarSpace], seed: int,
                   latent=("W",),
                   kernels: dict[str, np.ndarray] | None = None) -> Npsem:
    """Random model whose kernels are built for well-posed identification.

    Every non-root node separates strongly across its latent-side parent,
    keeping proxy kernels complete and signal columns distinct with high
    probability; nodes listed in ``kernels`` are encoded exactly instead.
    """
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
            specs.append(node_from_kernel(space, parents, kern))
            continue
        if not parents:
            pmf = rng.dirichlet(np.full(space.cardinality, 4.0))
            specs.append(NodeSpec(space, (), np.arange(space.cardinality,
                                                       dtype=np.int64), pmf))
            continue
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
        specs.append(node_from_kernel(space, parents, kern))
    return Npsem(tuple(specs), tuple(latent))


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

    def passes(self, sv_min=0.06, gap_min=0.08, mass_min=0.04, cate_min=1e-3) -> bool:
        return (self.sv_ratio >= sv_min and self.column_gap >= gap_min
                and self.stratum_mass >= mass_min and self.cate_gap >= cate_min)


#: per design: (stratum axis or None, signal, axes whose per-stratum
#: marginals must keep mass)
_SCREENS: dict[str, tuple[str | None, str, tuple[str, ...]]] = {
    "outcome": ("X", "Y", ("W",)),
    "bounds-outcome": ("X", "Y", ("W",)),
    "treatment": (None, "X", ("W",)),
    "cond-treatment": ("Y", "X", ("W",)),
    "auxiliary": ("X", "C", ("V", "W")),
    "bounds-auxiliary": ("X", "C", ("V", "W")),
}


def figure_diagnostics(m: Npsem, figure: str, K: int,
                       with_cate: bool = True) -> FixtureDiagnostics:
    """Rank, column-gap and mass screens of a figure model's intended
    design, then the CATE gap from the cross-world oracle.

    Within each stratum (each level of the stratum axis, or the whole joint)
    the Z|W kernel and the W-V matrix must have rank K, the signal's
    columns given W must differ, and the W (and V) marginals must keep
    mass; so must the stratum axis itself.  The observable joint is summed
    once down to (stratum, W, Z, V, signal), so each family of per-stratum
    matrices is one stacked array, screened by one batched SVD or one
    pairwise column comparison.  A stratum, or a W cell within one, without
    mass raises :class:`~triproxy.errors.ZeroConditioningCell`.  The oracle
    runs only when these screens pass at :meth:`FixtureDiagnostics.passes`'s
    thresholds, since a draw failing them is refused whatever its CATE gap;
    ``cate_gap`` is NaN then, and infinite when ``with_cate`` is false.
    """
    axis, signal, mass_axes = _SCREENS[FIGURE_DESIGNS[figure]]
    joint = observable_joint(m)
    order = ((axis,) if axis else ()) + ("W", "Z", "V", signal)
    t = marginalize(joint, set(joint.names) - set(order)).reorder(order).values
    t = t.reshape((-1,) + t.shape[-4:])                  # (stratum, W, Z, V, signal)
    w = t.sum(axis=(2, 3, 4))                            # (stratum, W)
    empty = np.argwhere(w <= 0)
    if empty.size:
        raise ZeroConditioningCell(f"W = {empty[0, 1]} has zero probability in "
                                   f"stratum {empty[0, 0]} of {axis or 'the joint'}")
    strata = w.sum(axis=1)
    mass = np.inf if axis is None else float(strata.min())
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
    for a in mass_axes:
        marginal = w if a == "W" else t.sum(axis=(1, 2, 4))
        mass = min(mass, float((marginal / strata[:, None]).min()))

    cate_gap = np.inf
    if with_cate:
        cate_gap = np.nan
        if FixtureDiagnostics(sv, gap, mass, np.inf).passes():
            cate = effects(m)["cate"]
            cate_gap = float(min((abs(a - b) for i, a in enumerate(cate)
                                  for b in cate[i + 1:]), default=np.inf))
    return FixtureDiagnostics(sv, gap, mass, cate_gap)


def figure_model(figure: str, K: int, seed: int, with_cate_gap: bool = True,
                 max_tries: int = MAX_TRIES) -> Npsem:
    """Seeded random model on a builtin figure graph, redrawn until the
    intended design's diagnostics pass."""
    if figure not in FIGURE_DESIGNS:
        raise InvalidDistribution(f"no generator for figure {figure!r}")
    dag = FIGURES[figure]
    spaces = standard_spaces(K)
    for attempt in range(max_tries):
        m = designed_npsem(dag, spaces, seed=_derive(figure, K, seed, attempt),
                           latent=("W",))
        if figure_diagnostics(m, figure, K, with_cate=with_cate_gap).passes(
                cate_min=1e-3 if with_cate_gap else 0.0):
            return m
    raise InvalidDistribution(f"no well-posed draw for {figure} K={K} seed={seed} "
                              f"in {max_tries} tries")


# ---------------------------------------------------------------------------
# designed kernels (exact means)


def _pmf_with_mean(levels: np.ndarray, mean: float, rng: np.random.Generator,
                   floor: float = 0.05) -> np.ndarray:
    """Random pmf over ``levels`` with the exact requested mean."""
    lo, hi = levels.min(), levels.max()
    if not lo + 1e-9 < mean < hi - 1e-9:
        raise InvalidDistribution(f"mean {mean} outside ({lo}, {hi})")
    q = rng.dirichlet(np.ones(levels.size))
    mq = float(q @ levels)
    # mix q with a two-point law at the extreme levels; the mixture weight is
    # chosen so the two-point mean stays feasible and the result is exact
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


def proxy_kernel_with_means(z_levels: np.ndarray, targets: np.ndarray,
                            rng: np.random.Generator) -> np.ndarray:
    """Columns are pmfs over ``z_levels`` whose means equal ``targets`` exactly."""
    cols = [ _pmf_with_mean(z_levels, t, rng) for t in targets ]
    return np.stack(cols, axis=1)


def unbiased_proxy_model(K: int, seed: int, figure: str = "fig2a",
                         monotone_map=None, max_tries: int = MAX_TRIES) -> Npsem:
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
    for attempt in range(max_tries):
        rng = np.random.default_rng(_derive(figure, K, seed, attempt, "ub"))
        z_kernel = proxy_kernel_with_means(z_levels, targets, rng)
        m = designed_npsem(dag, spaces,
                           seed=_derive(figure, K, seed, attempt, "rest"),
                           latent=("W",), kernels={"Z": z_kernel})
        if figure_diagnostics(m, figure, K).passes():
            return m
    raise InvalidDistribution(f"no well-posed unbiased-proxy draw in {max_tries} tries")


def rank_invariant_bounds_model(K: int, seed: int, figure: str = "fig6a",
                                constant_cate: bool = False,
                                cate_values=None,
                                max_tries: int = MAX_TRIES) -> Npsem:
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
    for attempt in range(max_tries):
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

        if auxiliary:
            v_card = spaces["V"].cardinality
            kern = np.empty((y_levels.size, K, v_card, 2))
            for v in range(v_card):
                base, cate = monotone_targets()
                for w in range(K):
                    kern[:, w, v, 0] = _pmf_with_mean(y_levels, base[w], rng)
                    kern[:, w, v, 1] = _pmf_with_mean(y_levels, base[w] + cate[w], rng)
            y_parents, y_kernel = ("W", "V", "X"), kern
        else:
            base, cate = monotone_targets()
            kern = np.empty((y_levels.size, K, 2))
            for w in range(K):
                kern[:, w, 0] = _pmf_with_mean(y_levels, base[w], rng)
                kern[:, w, 1] = _pmf_with_mean(y_levels, base[w] + cate[w], rng)
            y_parents, y_kernel = ("W", "X"), kern

        dag_mod = _with_outcome_parents(dag, y_parents)
        actual = dag_mod.parents("Y")
        perm = tuple(y_parents.index(p) + 1 for p in actual)
        y_kernel = np.transpose(y_kernel, (0,) + perm)
        m = designed_npsem(dag_mod, spaces,
                           seed=_derive(figure, K, seed, attempt, "rest"),
                           latent=("W",), kernels={"Y": y_kernel})
        if figure_diagnostics(m, figure, K, with_cate=False).passes(cate_min=0.0):
            return m
    raise InvalidDistribution(f"no well-posed rank-invariant draw in {max_tries} tries")


def _with_outcome_parents(dag: Dag, parents: tuple[str, ...]) -> Dag:
    """Restrict Y's incoming edges to ``parents`` (dropping edges is always
    a valid exclusion under the same graph)."""
    edges = tuple((a, b) for a, b in dag.edges if b != "Y" or a in parents)
    return Dag(dag.nodes, edges)
