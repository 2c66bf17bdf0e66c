"""Discrete structural equations models with explicit exogenous noise.

This is the ground-truth oracle: every node is a deterministic function of
its parents and one private categorical noise term.  Because the noises are
independent, every observable, interventional and cross-world joint factorizes
over nodes and is computed *exactly* by variable elimination (Zhang & Poole
1994), never by enumerating noise configurations.  A cross-world joint is a
numeric twin network (Balke & Pearl 1994): a node gets one copy per distinct
tuple of parent values across the intervention arms, and its multi-world
kernel ``Σ_u pmf(u)·Π_copies 1[table[pa_copy, u] = v_copy]`` sums its noise
once for all copies, so every arm shares the same noise draw.  That shared
draw is what the counterfactual independence statements in the proposition
battery are about.

The cost is the sum of the kernel sizes plus the intermediate joints.
``ENUMERATION_GUARD`` (from :mod:`triproxy.tolerances`) bounds the cells of
the requested joint and of every kernel, noise sum and intermediate joint;
an oversized request raises :class:`~triproxy.errors.EnumerationTooLarge`
before any array is allocated.
All but the arithmetic depends only on the structure (node names, parents
and cardinalities, worlds and outputs), so it is planned once per structure
and kept in a cache of at most ``PLAN_CACHE_SIZE`` plans that every model
drawn on one graph shares; per model, the noise sums are checked first, as
the noise cardinalities vary between models of one structure.

A model computes each exact joint once: the result is kept on the
:class:`Npsem` it was computed for and handed out again on every later
request for the same worlds, outputs and axes.  Sharing it is safe because
the model is frozen and the tables and the joint's values are read-only;
the stored joints go away with their model.

:func:`effects` is the one effect oracle: ATE, ATT, ATU, the potential
outcome laws and the distribution of the stratum effect, all read from the
memoized cross-world joint that keeps the latent node and the treatment.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from ._np import np
from .errors import (
    EnumerationTooLarge,
    InvalidDistribution,
    MissingRole,
    NonBinaryTreatment,
    UnknownNode,
    ValidationError,
)
from .graphs import Conclusion, Dag, _names
from .prob import ProbTensor, VarSpace, _count, _flat, marginalize
from .tolerances import ATOM_TOL, CI_TOL, ENUMERATION_GUARD, MASS_TOL


def _distinct(names, what: str) -> tuple[str, ...]:
    """``names`` as a tuple; a name listed twice is refused, named as
    ``what``.  A repeated parent would put its edge in the model's graph
    twice, and a repeated latent node would count as two latent nodes."""
    names = tuple(names)
    for i, n in enumerate(names):
        if n in names[:i]:
            raise InvalidDistribution(f"{what} {n!r} listed twice")
    return names


@dataclass(frozen=True)
class NodeSpec:
    """One structural equation: value = table[parent levels..., noise level]."""

    space: VarSpace
    parents: tuple[str, ...]
    table: np.ndarray = field(repr=False)     # int indices into the node's levels
    noise_pmf: np.ndarray = field(repr=False)

    def __post_init__(self):
        parents = _distinct(self.parents, f"{self.space.name}: parent")
        table = np.asarray(self.table, dtype=np.int64)
        pmf = np.asarray(self.noise_pmf, dtype=float)
        if pmf.ndim != 1 or pmf.size < 1:
            raise InvalidDistribution(f"{self.space.name}: bad noise pmf")
        if not np.isfinite(pmf).all() or abs(pmf.sum() - 1.0) > MASS_TOL or pmf.min() < 0:
            raise InvalidDistribution(f"{self.space.name}: noise pmf not a distribution")
        if table.shape[-1] != pmf.size:
            raise InvalidDistribution(f"{self.space.name}: table/noise shape mismatch")
        if table.min() < 0 or table.max() >= self.space.cardinality:
            raise InvalidDistribution(f"{self.space.name}: table values out of range")
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "noise_pmf", pmf)
        self.table.setflags(write=False)
        self.noise_pmf.setflags(write=False)

    @property
    def noise_card(self) -> int:
        return self.noise_pmf.size


@dataclass(frozen=True)
class Npsem:
    """Nodes in an order consistent with the graph; all noises independent."""

    nodes: tuple[NodeSpec, ...]
    latent: tuple[str, ...] = ()
    # exact joints already computed for this model, keyed by request
    _joints: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = tuple(self.nodes)
        names = [n.space.name for n in nodes]
        if len(set(names)) != len(names):
            raise InvalidDistribution("duplicate node names")
        cards: dict[str, int] = {}          # nodes defined so far
        for n in nodes:
            for p in n.parents:
                if p not in cards:
                    raise InvalidDistribution(
                        f"{n.space.name}: parent {p!r} not defined earlier (or cycle)")
            expected = tuple(cards[p] for p in n.parents) + (n.noise_card,)
            if n.table.shape != expected:
                raise InvalidDistribution(
                    f"{n.space.name}: table shape {n.table.shape}, expected {expected}")
            cards[n.space.name] = n.space.cardinality
        latent = _distinct(self.latent, "latent node")
        for l in latent:
            if l not in names:
                raise UnknownNode(f"latent {l!r} not a node")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "latent", latent)

    def __getitem__(self, name: str) -> NodeSpec:
        for n in self.nodes:
            if n.space.name == name:
                return n
        raise UnknownNode(f"unknown node {name!r}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n.space.name for n in self.nodes)

    def graph(self) -> Dag:
        edges = [(p, n.space.name) for n in self.nodes for p in n.parents]
        return Dag(self.names, tuple(edges))

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        out = {"nodes": []}
        for n in self.nodes:
            d = n.space.to_dict()
            d["parents"] = list(n.parents)
            d["noise_card"] = n.noise_card
            d["table"] = n.table.ravel(order="C").tolist()
            d["noise_pmf"] = n.noise_pmf.tolist()
            out["nodes"].append(d)
        if self.latent:
            out["latent"] = list(self.latent)
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "Npsem":
        specs = []
        spaces = {}
        for nd in d["nodes"]:
            space = VarSpace.from_dict(nd)
            spaces[space.name] = space
            parents = _distinct(_names(nd["parents"], f"{space.name} parents"),
                                f"{space.name}: parent")
            shape = tuple(spaces[p].cardinality for p in parents) + (
                _count(nd, "noise_card"),)
            table = _flat(nd["table"], f"{space.name}: table", integers=True)
            specs.append(NodeSpec(space, parents, table.astype(np.int64).reshape(shape),
                                  _flat(nd["noise_pmf"], f"{space.name}: noise_pmf")))
        return cls(tuple(specs), _names(d.get("latent", []), "latent"))


# ---------------------------------------------------------------------------
# exact factorized oracle (variable elimination over multi-world kernels)


def _check_cells(cells: int, what: str) -> None:
    if cells > ENUMERATION_GUARD:
        raise EnumerationTooLarge(
            f"{what} would hold {cells} cells, over the {ENUMERATION_GUARD} guard")


def _plan(nodes, worlds, outputs, out_cards, noise_sizes) -> tuple:
    """Everything of an exact joint that depends only on the structure.

    ``nodes`` holds ``(name, parents, cardinality)`` per node.  A node gets
    one copy per distinct tuple of parent values across ``worlds``, so
    copies that cannot differ are one variable and all copies share the
    node's noise, which is summed out once in the node's kernel.  Nodes are
    eliminated in topological order: each step multiplies one kernel into
    the running joint and sums out every variable past its last use.  All
    cell counts are checked against :data:`ENUMERATION_GUARD` before any
    array is allocated; ``noise_sizes`` only enter that check.  Each step
    holds the node, its parent cells, per copy the table index of each parent
    configuration, the kernel's cell offsets, cells and shape and the einsum
    subscripts.
    """
    ids: dict = {}                 # (node, parent refs) -> variable id
    owner: list[int] = []          # variable id -> node position
    ref: dict = {}                 # (world, node) -> variable id or ("=", level)
    for i, (name, parents, _) in enumerate(nodes):
        for w, clamp in enumerate(worlds):
            if name in clamp:
                ref[w, name] = ("=", clamp[name])
                continue
            key = (name, tuple(ref[w, p] for p in parents))
            if key not in ids:
                ids[key] = len(owner)
                owner.append(i)
            ref[w, name] = ids[key]
    parents_of = {v: key[1] for key, v in ids.items()}
    cards = [nodes[i][2] for i in owner]

    out_refs = [ref[o] for o in outputs]
    out_vars = {r for r in out_refs if not isinstance(r, tuple)}
    needed = set(out_vars)
    for v in reversed(range(len(owner))):    # parents have smaller ids
        if v in needed:
            needed.update(r for r in parents_of[v] if not isinstance(r, tuple))
    copies_of: dict[int, list[int]] = {}
    for v in sorted(needed):
        copies_of.setdefault(owner[v], []).append(v)

    steps = []                     # (node, copies, parent vars, kernel vars)
    last_use: dict[int, int] = {}
    for i, copies in sorted(copies_of.items()):
        pa_vars = list(dict.fromkeys(r for v in copies for r in parents_of[v]
                                     if not isinstance(r, tuple)))
        k_vars = pa_vars + copies
        _check_cells(math.prod(cards[v] for v in pa_vars) * noise_sizes[i],
                     f"the noise sum of {nodes[i][0]!r}")
        _check_cells(math.prod(cards[v] for v in k_vars), f"the kernel of {nodes[i][0]!r}")
        for v in k_vars:
            last_use[v] = len(steps)
        steps.append((i, copies, pa_vars, k_vars))

    lives, live = [], []
    for step, (_, _, _, k_vars) in enumerate(steps):
        union = list(dict.fromkeys(live + k_vars))
        live = [v for v in union if last_use[v] > step or v in out_vars]
        _check_cells(math.prod(cards[v] for v in live), "an intermediate joint")
        lives.append(live)
    _check_cells(math.prod(out_cards), "the requested joint")

    # size-1 axes are left out of every einsum; the guard then keeps the
    # subscripts within numpy's 52, as each operand and the output carry at
    # most log2(ENUMERATION_GUARD) < 24 axes of size >= 2
    def wide(vs):
        return [v for v in vs if cards[v] > 1]

    planned, j_vars = [], []
    for (i, copies, pa_vars, k_vars), live in zip(steps, lives):
        shape = [cards[v] for v in pa_vars]
        pa_cells = math.prod(shape)
        grid = np.indices(shape).reshape(len(shape), pa_cells)
        index = [tuple(r[1] if isinstance(r, tuple) else grid[pa_vars.index(r)]
                       for r in parents_of[v]) for v in copies]
        card = nodes[i][2]
        k_vars, live = wide(k_vars), wide(live)
        local = {v: c for c, v in enumerate(dict.fromkeys(j_vars + k_vars))}
        planned.append((
            i, pa_cells, index, np.arange(pa_cells).reshape(pa_cells, 1) * card ** len(copies),
            pa_cells * card ** len(copies), [cards[v] for v in k_vars],
            ([local[v] for v in j_vars], [local[v] for v in k_vars],
             [local[v] for v in live])))
        j_vars = live

    # place the outputs: a repeated variable is a diagonal, a clamp a point mass
    operands, out_axes = [], []
    for r, card in zip(out_refs, out_cards):
        if card == 1:
            continue
        if not isinstance(r, tuple) and j_vars.index(r) not in out_axes:
            out_axes.append(j_vars.index(r))
            continue
        fresh = len(j_vars) + len(out_axes)
        if isinstance(r, tuple):
            point = np.zeros(card)
            point[r[1]] = 1.0
            operands += [point, [fresh]]
        else:
            operands += [np.eye(card), [j_vars.index(r), fresh]]
        out_axes.append(fresh)
    return planned, operands, out_axes


#: most elimination plans kept at once
PLAN_CACHE_SIZE = 256
_PLANS: dict = {}                  # structure key -> plan, oldest first


def _exact_joint(m: Npsem, worlds, outputs, spaces) -> ProbTensor:
    """Exact joint of ``outputs``, each a ``(world, node)`` pair.

    ``worlds`` are clamp dicts (``{}`` is the factual world).  Each kernel
    is gathered from the node's table by the structure's plan and multiplied
    in.  The result is stored on ``m`` and returned as is on every repeat of
    the request.
    """
    world_items = tuple(tuple(sorted(w.items())) for w in worlds)
    request = (world_items, tuple(outputs), tuple(spaces))
    if request in m._joints:
        return m._joints[request]
    key = (tuple((n.space.name, n.parents, n.space.cardinality) for n in m.nodes),
           world_items, tuple(outputs), tuple(s.cardinality for s in spaces))
    plan = _PLANS.get(key)
    if plan is None:
        plan = _plan(key[0], worlds, key[2], key[3], [n.noise_card for n in m.nodes])
        if len(_PLANS) >= PLAN_CACHE_SIZE:
            del _PLANS[next(iter(_PLANS))]             # the oldest plan
        _PLANS[key] = plan
    steps, out_operands, out_axes = plan
    for i, pa_cells, *_ in steps:
        n = m.nodes[i]
        _check_cells(pa_cells * n.noise_card, f"the noise sum of {n.space.name!r}")
    joint = np.ones(())
    for i, pa_cells, index, base, cells, shape, (j_sub, k_sub, live) in steps:
        # the node's kernel: each parent configuration and noise level adds
        # pmf(u) to the cell of the copies' values, all in one bincount
        n = m.nodes[i]
        flat = n.table[index[0]]
        for idx in index[1:]:
            flat = flat * n.space.cardinality + n.table[idx]
        weights = n.noise_pmf[np.newaxis].repeat(pa_cells, axis=0)
        kern = np.bincount((base + flat).ravel(), weights=weights.ravel(), minlength=cells)
        joint = np.einsum(joint, j_sub, kern.reshape(shape), k_sub, live)
    values = np.einsum(joint, list(range(joint.ndim)), *out_operands, out_axes)
    values = values.reshape(key[3])
    m._joints[request] = ProbTensor.build(tuple(spaces), values)
    return m._joints[request]


def observable_joint(m: Npsem) -> ProbTensor:
    """Exact joint over every node (latent included), mass one."""
    return _exact_joint(m, [{}], [(0, name) for name in m.names],
                        [n.space for n in m.nodes])


def observed_joint(m: Npsem) -> ProbTensor:
    """Joint over the non-latent nodes only (the estimation input)."""
    return marginalize(observable_joint(m), set(m.latent))


def arm_label(outcome: str, levels: tuple[int, ...]) -> str:
    return f"{outcome}({','.join(str(v) for v in levels)})"


def counterfactual_joint(m: Npsem, intervene_on, outcome: str = "Y",
                         keep=None) -> ProbTensor:
    """Cross-world joint of every potential outcome arm plus the factual nodes.

    One axis per intervention arm, named e.g. ``Y(0)`` or ``Y(1,2)``,
    carrying the outcome's numeric levels; noise is shared across arms, so
    consistency ``Y(X) = Y`` holds exactly.  ``keep`` restricts the factual
    axes retained (default: all nodes); a kept node named like an arm's axis
    is refused with :class:`~triproxy.errors.ValidationError`.
    """
    intervene_on = tuple(intervene_on)
    y_space = m[outcome].space
    keep = tuple(keep) if keep is not None else m.names
    arms = list(itertools.product(*[range(m[n].space.cardinality) for n in intervene_on]))
    worlds = [{}] + [dict(zip(intervene_on, arm)) for arm in arms]
    labels = [arm_label(outcome, arm) for arm in arms]
    for n in keep:
        if n in labels:
            raise ValidationError(f"model node {n!r} is named like the potential outcome "
                                  f"of {outcome!r} under {worlds[1 + labels.index(n)]}")
    outputs = [(w, outcome) for w in range(1, len(worlds))] + [(0, n) for n in keep]
    spaces = [VarSpace(label, y_space.cardinality, y_space.levels)
              for label in labels] + [m[n].space for n in keep]
    return _exact_joint(m, worlds, outputs, spaces)


def effects(m: Npsem) -> dict:
    """Exact effects of the binary treatment ``X`` on the outcome ``Y``, all
    from one cross-world joint.

    The joint keeps the model's one latent node ``W`` and the treatment next
    to both arms, so every effect reference of a model is one memoized
    request.  The summary holds ``ate``, ``att`` and ``atu``; ``pot_y``, the
    law of ``Y(x)`` in column ``x``; ``cate``, ``E[Y(1) - Y(0) | W = w]`` per
    latent state, and ``w``, the latent law; and the CDF of that stratum
    effect as its sorted distinct values ``beta_atoms`` (values within
    ``ATOM_TOL`` are one atom) with the cumulative masses ``beta_cdf``.
    """
    if len(m.latent) != 1:
        raise MissingRole("effect summaries need exactly one latent node; the model "
                          f"declares {list(m.latent) or 'none'}")
    (latent,) = m.latent
    if latent in ("X", "Y"):
        raise MissingRole(f"the treatment and the outcome must be observed; {latent!r} "
                          "is the model's latent node")
    if m["X"].space.cardinality != 2:
        raise NonBinaryTreatment("effect summaries need a binary treatment")
    y = m["Y"].space.level_values()
    joint = counterfactual_joint(m, ("X",), keep=(latent, "X"))
    arms = tuple(arm_label("Y", (x,)) for x in (0, 1))
    v = joint.reorder(arms + (latent, "X")).values
    y0, y1 = v.sum(axis=1), v.sum(axis=0)              # (Y(x), W, X)
    wx = y0.sum(axis=0)
    w, fx = wx.sum(axis=1), wx.sum(axis=0)
    pot_y = np.stack([y0.sum(axis=(1, 2)), y1.sum(axis=(1, 2))], axis=1)
    atu, att = y @ (y1.sum(axis=1) - y0.sum(axis=1)) / fx
    cate = y @ (y1.sum(axis=2) - y0.sum(axis=2)) / w
    order = np.argsort(cate, kind="stable")
    atom = np.concatenate([[True], np.diff(cate[order]) > ATOM_TOL])
    return {"ate": float(y @ (pot_y[:, 1] - pot_y[:, 0])),
            "att": float(att), "atu": float(atu),
            "pot_y": pot_y, "cate": cate, "w": w,
            "beta_atoms": cate[order][atom],
            "beta_cdf": np.cumsum(np.add.reduceat(w[order], np.flatnonzero(atom)))}


def _independent(t: ProbTensor, left, right, given) -> bool:
    """Exact factorization test: f(l,r,g)·f(g) == f(l,g)·f(r,g) cellwise."""
    keep = tuple(left) + tuple(right) + tuple(given)
    j = marginalize(t, set(t.names) - set(keep)).reorder(keep)
    nl, nr, ng = len(left), len(right), len(given)
    shape = j.values.shape
    a = j.values.reshape(int(np.prod(shape[:nl], dtype=int)),
                         int(np.prod(shape[nl:nl + nr], dtype=int)),
                         int(np.prod(shape[nl + nr:], dtype=int)) if ng else 1)
    fg = a.sum(axis=(0, 1))
    flg = a.sum(axis=1)
    frg = a.sum(axis=0)
    lhs = a * fg[np.newaxis, np.newaxis, :]
    rhs = flg[:, np.newaxis, :] * frg[np.newaxis, :, :]
    return bool(np.max(np.abs(lhs - rhs)) <= CI_TOL)


def check_conclusion(m: Npsem, c: Conclusion) -> bool:
    """Exact test of one conclusion of :data:`~triproxy.graphs.PROPOSITIONS`
    on the model: an observational one on :func:`observable_joint`, a
    counterfactual one such as ``Y(x) ⊥ X,V | W`` in every intervention
    arm of the cross-world joint."""
    if c.kind == "observational":
        return _independent(observable_joint(m), c.left, c.right, c.given)
    (outcome,) = c.left
    joint = counterfactual_joint(m, c.intervene, outcome=outcome,
                                 keep=tuple(dict.fromkeys(c.right + c.given)))
    arms = itertools.product(*[range(m[n].space.cardinality) for n in c.intervene])
    return all(_independent(joint, (arm_label(outcome, arm),), c.right, c.given)
               for arm in arms)
