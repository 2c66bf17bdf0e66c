"""DAGs, d-separation, and classification of identification designs.

d-separation uses the linear-time reachability ("Bayes-ball") algorithm:
walk directed edges remembering the direction of entry, crossing a node
only when the local head-to-head / chain / fork rule permits it given the
conditioning set.

A counterfactual independence statement (one about a potential outcome)
is certified by d-separation in a twin network (Balke & Pearl 1994).
Proposition reports and design classification certify every conclusion by
that one rule; :func:`triproxy.scm.check_conclusion` tests the same record
exactly on structural models.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass, field

from .errors import (CyclicGraph, EnumerationTooLarge, InvalidDistribution, MissingRole,
                     UnknownNode)
from .tolerances import ROLE_ASSIGNMENT_GUARD


def _names(value, what: str) -> tuple[str, ...]:
    """The list of names ``value`` of a parsed file; a string, which would
    split into its characters, or a non-string entry is refused."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise InvalidDistribution(f"{what} {value!r} is not a list of names")
    return tuple(value)


@dataclass(frozen=True)
class Dag:
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    # each node's parents and children in edge order, and a topological
    # order, all fixed by the frozen nodes and edges
    _parents: dict = field(init=False, repr=False, compare=False)
    _children: dict = field(init=False, repr=False, compare=False)
    _order: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = tuple(self.nodes)
        edges = tuple(tuple(e) for e in self.edges)
        if len(set(nodes)) != len(nodes):
            raise InvalidDistribution(f"duplicate nodes: {nodes}")
        if len(set(edges)) != len(edges):
            raise InvalidDistribution("duplicate edges")
        known = set(nodes)
        for a, b in edges:
            if a not in known or b not in known:
                raise UnknownNode(f"edge ({a},{b}) uses undeclared node")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        parent_lists = {n: [] for n in nodes}
        child_lists = {n: [] for n in nodes}
        for a, b in edges:
            parent_lists[b].append(a)
            child_lists[a].append(b)
        parents = {n: tuple(ps) for n, ps in parent_lists.items()}
        children = {n: tuple(cs) for n, cs in child_lists.items()}
        indeg = {n: len(parents[n]) for n in nodes}
        queue = deque(n for n in nodes if indeg[n] == 0)
        order = []
        while queue:
            n = queue.popleft()
            order.append(n)
            for c in children[n]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
        if len(order) != len(nodes):
            raise CyclicGraph("graph has a directed cycle")
        object.__setattr__(self, "_parents", parents)
        object.__setattr__(self, "_children", children)
        object.__setattr__(self, "_order", tuple(order))

    def parents(self, node: str) -> tuple[str, ...]:
        if node not in self._parents:
            raise UnknownNode(f"unknown node {node!r}")
        return self._parents[node]

    def children(self, node: str) -> tuple[str, ...]:
        if node not in self._children:
            raise UnknownNode(f"unknown node {node!r}")
        return self._children[node]

    def topological_order(self) -> tuple[str, ...]:
        return self._order

    def descendants(self, node: str) -> set[str]:
        out: set[str] = set()
        stack = [node]
        while stack:
            for c in self.children(stack.pop()):
                if c not in out:
                    out.add(c)
                    stack.append(c)
        return out

    def to_dict(self) -> dict:
        return {"nodes": list(self.nodes), "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_dict(cls, d: dict) -> "Dag":
        nodes = _names(d["nodes"], "nodes")
        edges = tuple(_names(e, "edge") for e in d["edges"])
        for e in edges:
            if len(e) != 2:
                raise InvalidDistribution(f"edge {list(e)!r} is not two names")
        return cls(nodes, edges)


def d_separated(g: Dag, left, right, given=()) -> bool:
    """True iff every path between the nodes ``left`` and ``right`` is
    blocked by the nodes ``given``."""
    left, right, conditioned = set(left), set(right), set(given)
    if (left & right) or (left & conditioned) or (right & conditioned):
        raise InvalidDistribution("query sets must be pairwise disjoint")
    for n in left | right | conditioned:
        if n not in g.nodes:
            raise UnknownNode(f"query node {n!r} not in graph")
    # ancestors of the conditioning set, needed for the collider rule
    anc_z = set(conditioned)
    stack = list(conditioned)
    while stack:
        for p in g.parents(stack.pop()):
            if p not in anc_z:
                anc_z.add(p)
                stack.append(p)

    # states: (node, direction) with direction "up" (arrived via child) or
    # "down" (arrived via parent)
    start = [(n, "up") for n in left]
    seen = set(start)
    queue = deque(start)
    while queue:
        node, direction = queue.popleft()
        if node in right:
            return False
        moves = []
        if direction == "up" and node not in conditioned:
            moves += [(p, "up") for p in g.parents(node)]
            moves += [(c, "down") for c in g.children(node)]
        elif direction == "down":
            if node not in conditioned:
                moves += [(c, "down") for c in g.children(node)]
            if node in anc_z:  # head-to-head unblocked by an (ancestor of a) conditioned node
                moves += [(p, "up") for p in g.parents(node)]
        for mv in moves:
            if mv not in seen:
                seen.add(mv)
                queue.append(mv)
    return True


# ---------------------------------------------------------------------------
# counterfactual (twin network) d-separation


def twin_network(g: Dag, intervene_on) -> tuple[Dag, dict]:
    """Graph over originals, shared noise terms, and intervened-world copies.

    Every descendant ``N`` of an intervened node gets a copy ``(N, "*")``,
    without the intervened parents (constants in that world), and a noise
    parent ``("u", N)`` shared with ``N``; other noise, with one child, lies
    on no path.  Tuple names never equal a graph node's.  Returns the twin
    graph and a map from original names to copy names.
    """
    intervene_on = set(intervene_on)
    for n in intervene_on:
        if n not in g.nodes:
            raise UnknownNode(f"unknown node {n!r}")
    affected: set[str] = set()
    for x in intervene_on:
        affected |= g.descendants(x)
    affected -= intervene_on
    copy = {n: (n, "*") for n in g.nodes if n in affected}
    nodes = list(g.nodes) + [("u", n) for n in copy] + list(copy.values())
    edges = list(g.edges)
    for n, c in copy.items():
        edges += [(("u", n), n), (("u", n), c)]
        edges += [(copy.get(p, p), c) for p in g.parents(n) if p not in intervene_on]
    return Dag(tuple(nodes), tuple(edges)), copy


def counterfactual_d_separated(twin: tuple[Dag, dict], outcome: str, right, given) -> bool:
    """Graphical check of ``outcome(x) ⊥ right | given`` on ``twin``, the twin
    network and copy map :func:`twin_network` returns for the intervened set."""
    net, copy = twin
    cf = copy.get(outcome, outcome)
    if cf == outcome:
        # outcome unaffected by the intervention: plain d-separation,
        # excluding trivial overlaps
        right = set(right) - {outcome}
    return d_separated(net, {cf}, right, given)


# ---------------------------------------------------------------------------
# builtin figure graphs

_CORE = ["Y", "X", "W", "V", "Z"]
_CORE_C = _CORE + ["C"]
_BASE = [("X", "Y"), ("W", "X"), ("W", "Y")]

FIGURES: dict[str, Dag] = {
    # motivating test-score graphs
    "fig1a": Dag(tuple(_CORE), tuple(_BASE + [("W", "Z"), ("W", "V"), ("X", "V")])),
    "fig1b": Dag(tuple(_CORE), tuple(_BASE + [("W", "Z"), ("W", "V"), ("Z", "X"), ("V", "Y")])),
    "fig1c": Dag(tuple(_CORE), tuple(_BASE + [("W", "Z"), ("W", "V"), ("Y", "V")])),
    "fig1d": Dag(tuple(_CORE_C), tuple(_BASE + [
        ("W", "Z"), ("W", "V"), ("W", "C"), ("V", "Y"), ("C", "Y"), ("V", "X"), ("X", "C")])),
    # outcome-proxy designs
    "fig2a": Dag(tuple(_CORE), tuple(_BASE + [("W", "Z"), ("W", "V"), ("V", "X")])),
    "fig2b": Dag(tuple(_CORE), tuple(_BASE + [("W", "Z"), ("V", "W"), ("V", "X")])),
    "fig2c": Dag(tuple(_CORE), tuple(_BASE + [("W", "Z"), ("W", "V"), ("X", "V")])),
    # treatment-proxy designs
    "fig3a": Dag(tuple(_CORE), tuple(_BASE + [("W", "Z"), ("W", "V"), ("V", "Y")])),
    "fig3b": Dag(tuple(_CORE), tuple(_BASE + [("Z", "W"), ("W", "V"), ("V", "Y")])),
    "fig3c": Dag(tuple(_CORE), tuple(_BASE + [("W", "Z"), ("V", "W"), ("V", "Y")])),
    # outcome-conditional treatment-proxy designs
    "fig4a": Dag(tuple(_CORE), tuple(_BASE + [("W", "Z"), ("W", "V"), ("Y", "V")])),
    "fig4b": Dag(tuple(_CORE), tuple(_BASE + [("Z", "W"), ("W", "V"), ("Y", "V")])),
    # auxiliary-proxy designs
    "fig5a": Dag(tuple(_CORE_C), tuple(_BASE + [
        ("W", "Z"), ("W", "V"), ("W", "C"), ("V", "Y"), ("C", "Y"), ("V", "X"), ("X", "C")])),
    "fig5b": Dag(tuple(_CORE_C), tuple(_BASE + [
        ("W", "Z"), ("V", "W"), ("W", "C"), ("V", "Y"), ("C", "Y"), ("V", "X"), ("X", "C")])),
    "fig5c": Dag(tuple(_CORE_C), tuple(_BASE + [
        ("Z", "W"), ("W", "V"), ("W", "C"), ("V", "Y"), ("C", "Y"), ("V", "X"), ("X", "C")])),
    # rank-invariance relaxations (treatment may hit Z)
    "fig6a": Dag(tuple(_CORE), tuple(_BASE + [("W", "Z"), ("W", "V"), ("V", "X"), ("X", "Z")])),
    "fig6b": Dag(tuple(_CORE), tuple(_BASE + [("W", "Z"), ("V", "W"), ("V", "X"), ("X", "Z")])),
    "fig6c": Dag(tuple(_CORE), tuple(_BASE + [("W", "Z"), ("W", "V"), ("X", "V"), ("X", "Z")])),
    "fig7a": Dag(tuple(_CORE_C), tuple(_BASE + [
        ("W", "Z"), ("W", "V"), ("W", "C"), ("V", "Y"), ("C", "Y"),
        ("X", "Z"), ("V", "X"), ("X", "C")])),
    "fig7b": Dag(tuple(_CORE_C), tuple(_BASE + [
        ("W", "Z"), ("V", "W"), ("W", "C"), ("V", "Y"), ("C", "Y"),
        ("V", "X"), ("X", "Z"), ("X", "C")])),
}


# ---------------------------------------------------------------------------
# proposition battery


@dataclass(frozen=True)
class Conclusion:
    label: str
    kind: str                       # "observational" | "counterfactual"
    left: tuple[str, ...]
    right: tuple[str, ...]
    given: tuple[str, ...] = ()
    intervene: tuple[str, ...] = () # for counterfactual conclusions

    def __str__(self):
        """The statement ``dag-check`` reports: ``V ⊥ X,Z | W`` with each set
        sorted, or ``Y(x) ⊥ X,V | W`` in the record's order with the
        intervened nodes in lower case."""
        if self.kind == "observational":
            left, right, given = sorted(self.left), sorted(self.right), sorted(self.given)
        else:
            left = [f"{self.left[0]}({','.join(n.lower() for n in self.intervene)})"]
            right, given = self.right, self.given
        return f"{','.join(left)} ⊥ {','.join(right)} | {','.join(given) or '∅'}"


def _obs(label, left, right, given=()):
    return Conclusion(label, "observational", tuple(left), tuple(right), tuple(given))


def _cf(label, outcome, intervene, right, given=()):
    return Conclusion(label, "counterfactual", (outcome,), tuple(right),
                      tuple(given), tuple(intervene))


PROPOSITIONS: dict[int, tuple[Conclusion, ...]] = {
    1: (_obs("i", ["Y"], ["V", "Z"], ["W", "X"]),
        _obs("ii", ["V"], ["Z"], ["W", "X"]),
        _obs("iii", ["Z"], ["X"], ["W"]),
        _cf("iv", "Y", ["X"], ["X", "V"], ["W"])),
    2: (_obs("i", ["V"], ["X", "Z"], ["W"]),
        _obs("ii", ["X"], ["Z"], ["W"]),
        _obs("iii", ["Y"], ["Z"], ["W", "X"]),
        _cf("iv", "Y", ["X"], ["X", "Z"], ["W"])),
    3: (_obs("i", ["V"], ["X", "Z"], ["W", "Y"]),
        _obs("ii", ["X"], ["Z"], ["W", "Y"]),
        _obs("iii", ["Y"], ["Z"], ["W"]),
        _cf("iv", "Y", ["X"], ["X"], ["W"])),
    4: (_obs("i", ["C"], ["V", "Z"], ["W", "X"]),
        _obs("ii", ["V"], ["Z"], ["W", "X"]),
        _obs("iii", ["X"], ["Z"], ["W"]),
        _obs("iv", ["Y"], ["Z"], ["W", "V", "X"]),
        _cf("v", "Y", ["X"], ["X"], ["W", "V"])),
    5: (_cf("i", "Y", ["X", "W"], ["X", "W"]),
        _cf("ii", "Y", ["X", "W"], ["X", "W"], ["V"])),
    6: (_obs("i", ["Y"], ["V", "Z"], ["W", "X"]),
        _obs("ii", ["V"], ["Z"], ["W", "X"]),
        _cf("iii", "Y", ["X"], ["X", "V"], ["W"])),
    7: (_obs("i", ["C"], ["V", "Z"], ["W", "X"]),
        _obs("ii", ["V"], ["Z"], ["W", "X"]),
        _obs("iii", ["Y"], ["Z"], ["W", "V", "X"]),
        _cf("iv", "Y", ["X"], ["X"], ["W", "V"])),
}

_CORE_ROLES = ("Y", "X", "W")


@dataclass(frozen=True)
class Design:
    """One design: the proposition that certifies it and, for a design the
    pipelines run, its identification stage (a graph-only design has none)."""

    name: str
    proposition: int
    labels: tuple[str, ...] | None = None  # conclusions needed; None: all of them
    axes: tuple[str, ...] = ()      # the axes the design's joint must have, read by name
    stratum: str | None = None      # factorized in its most probable level; None: whole joint
    signal: str | None = None       # the third proxy: (Z, signal, V) is factorized
    second_stage: tuple[str, ...] = ()  # deconvolved through the shared f(z | w)
    distinctness: str | None = None     # the assumption the signal's columns must meet

    def needed(self) -> tuple[Conclusion, ...]:
        return tuple(c for c in PROPOSITIONS[self.proposition]
                     if self.labels is None or c.label in self.labels)

    def proxy_roles(self) -> tuple[str, ...]:
        """The names the needed conclusions use besides Y, X and W, as Z, V, C."""
        names = {n for c in self.needed() for n in (*c.left, *c.right, *c.given, *c.intervene)}
        return tuple(sorted(names - set(_CORE_ROLES), reverse=True))


#: every design by name.  The double proxy needs conclusions ii. and iii.
#: of the outcome-proxy proposition plus its counterfactual conclusion iv.;
#: the rank-invariance designs are what ``bounds`` computes with the stage
#: of the outcome or the auxiliary design.
DESIGNS: dict[str, Design] = {d.name: d for d in (
    Design("outcome", 1, None, ("Y", "Z", "V", "X"), "X", "Y", ("Y", "Z", "X"),
           "HS Assumption 4 / Assumption 3: distinct outcome-kernel columns "
           "in the factorized treatment stratum"),
    Design("treatment", 2, None, ("Y", "Z", "V", "X"), None, "X", ("Y", "Z", "X"),
           "HS Assumption 4 / Assumption 4: distinct treatment-kernel columns"),
    Design("cond-treatment", 3, None, ("Y", "Z", "V", "X"), "Y", "X", ("Y", "Z", "X"),
           "HS Assumption 4 / Assumption 6: distinct treatment-kernel "
           "columns in the reference outcome stratum"),
    Design("auxiliary", 4, None, ("Y", "C", "Z", "V", "X"), "X", "C", ("Y", "Z", "V", "X"),
           "HS Assumption 4 / Assumption 8: distinct auxiliary-signal columns "
           "in the factorized treatment stratum"),
    Design("outcome-rank-invariance", 6),
    Design("auxiliary-rank-invariance", 7),
    Design("double-proxy", 1, ("ii", "iii", "iv")),
)}


@dataclass(frozen=True)
class CheckReport:
    proposition: int
    #: each conclusion with its verdict: d-separation, in the twin network
    #: if counterfactual
    conclusions: tuple[tuple[Conclusion, bool], ...]

    @property
    def all_observational_certified(self) -> bool:
        return all(ok for c, ok in self.conclusions if c.kind == "observational")


def _holds(g: Dag, c: Conclusion, roles: dict[str, str], twin) -> bool:
    """d-separation of an observational conclusion, or the twin-network
    check of a counterfactual one, with the roles mapped to nodes of ``g``;
    ``twin`` builds the twin network of ``g`` for a set of intervened nodes."""
    def mapped(names):
        return frozenset(roles[n] for n in names)

    if c.kind == "observational":
        return d_separated(g, mapped(c.left), mapped(c.right), mapped(c.given))
    return counterfactual_d_separated(twin(mapped(c.intervene)), roles[c.left[0]],
                                      mapped(c.right), mapped(c.given))


def _twins(g: Dag):
    """The twin-network builder of ``g``, building each intervened set once."""
    return functools.cache(functools.partial(twin_network, g))


def check_proposition(g: Dag, prop_id: int) -> CheckReport:
    """Certify each of a proposition's conclusions on ``g``, with the rule
    :func:`classify_designs` applies: d-separation for an observational
    conclusion, the twin network for a counterfactual one."""
    if prop_id not in PROPOSITIONS:
        raise InvalidDistribution(f"no proposition {prop_id}")
    for c in PROPOSITIONS[prop_id]:
        for r in (*c.left, *c.right, *c.given, *c.intervene):
            if r not in g.nodes:
                raise MissingRole(f"graph lacks a node for role {r!r}")
    roles = {n: n for n in g.nodes}
    twin = _twins(g)
    return CheckReport(prop_id, tuple((c, _holds(g, c, roles, twin))
                                      for c in PROPOSITIONS[prop_id]))


# ---------------------------------------------------------------------------
# design classification


def classify_designs(g: Dag) -> frozenset:
    """Designs whose graphical prerequisites hold under some proxy-role assignment.

    The core nodes Y, X, W must be present; the remaining nodes are tried in
    every injective assignment to the proxy roles each design requires, and
    an assignment certifies the design when every conclusion it needs holds:
    by d-separation, or by the twin network for a counterfactual one, built
    once per intervened set.  A graph with more than ``ROLE_ASSIGNMENT_GUARD``
    assignments of three roles raises
    :class:`~triproxy.errors.EnumerationTooLarge` before any is tried.
    """
    for r in _CORE_ROLES:
        if r not in g.nodes:
            raise MissingRole(f"graph lacks a node for core role {r!r}")
    candidates = [n for n in g.nodes if n not in _CORE_ROLES]
    count = math.perm(len(candidates), 3)
    if count > ROLE_ASSIGNMENT_GUARD:
        raise EnumerationTooLarge(
            f"{len(candidates)} candidate proxies give {count} assignments of 3 proxy "
            f"roles, over the {ROLE_ASSIGNMENT_GUARD} guard")
    twin = _twins(g)
    found = set()
    for d in DESIGNS.values():
        needed, proxy_roles = d.needed(), d.proxy_roles()
        for combo in itertools.permutations(candidates, len(proxy_roles)):
            roles = {r: r for r in _CORE_ROLES} | dict(zip(proxy_roles, combo))
            if all(_holds(g, c, roles, twin) for c in needed):
                found.add(d.name)
                break
    return frozenset(found)
