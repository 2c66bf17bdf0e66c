"""DAGs, d-separation, and classification of identification designs.

d-separation uses the linear-time reachability ("Bayes-ball") algorithm:
walk directed edges remembering the direction of entry, crossing a node
only when the local head-to-head / chain / fork rule permits it given the
conditioning set.

Counterfactual independence statements (those about potential outcomes)
are handled two ways: a twin-network construction gives a *graphical*
certificate, while :mod:`triproxy.scm` checks the same statement
numerically on simulated structural models.  Proposition reports only
claim counterfactual conclusions as verified-by-simulation.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass, field

from .errors import CyclicGraph, InvalidDistribution, MissingRole, UnknownNode


@dataclass(frozen=True)
class Dag:
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    # each node's parents in edge order, and a topological order, both
    # fixed by the frozen nodes and edges
    _parents: dict = field(init=False, repr=False, compare=False)
    _order: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = tuple(self.nodes)
        edges = tuple((str(a), str(b)) for a, b in self.edges)
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
        parents = {n: tuple(a for a, b in edges if b == n) for n in nodes}
        children = {n: [b for a, b in edges if a == n] for n in nodes}
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
        object.__setattr__(self, "_order", tuple(order))

    def parents(self, node: str) -> tuple[str, ...]:
        if node not in self._parents:
            raise UnknownNode(f"unknown node {node!r}")
        return self._parents[node]

    def children(self, node: str) -> tuple[str, ...]:
        if node not in self.nodes:
            raise UnknownNode(f"unknown node {node!r}")
        return tuple(b for a, b in self.edges if a == node)

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

    def to_dict(self, roles: dict | None = None) -> dict:
        d: dict = {"nodes": list(self.nodes), "edges": [list(e) for e in self.edges]}
        if roles:
            d["roles"] = dict(roles)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Dag":
        return cls(tuple(d["nodes"]), tuple((a, b) for a, b in d["edges"]))

    @classmethod
    def from_json(cls, s: str) -> "Dag":
        return cls.from_dict(json.loads(s))


@dataclass(frozen=True)
class CiQuery:
    """Conditional-independence statement: left ⊥ right | given."""

    left: frozenset
    right: frozenset
    given: frozenset = frozenset()

    def __post_init__(self):
        left, right, given = frozenset(self.left), frozenset(self.right), frozenset(self.given)
        if (left & right) or (left & given) or (right & given):
            raise InvalidDistribution("query sets must be pairwise disjoint")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "given", given)

    def __str__(self):
        g = ",".join(sorted(self.given)) or "∅"
        return f"{','.join(sorted(self.left))} ⊥ {','.join(sorted(self.right))} | {g}"


def d_separated(g: Dag, q: CiQuery) -> bool:
    """True iff every path between ``q.left`` and ``q.right`` is blocked."""
    for n in q.left | q.right | q.given:
        if n not in g.nodes:
            raise UnknownNode(f"query node {n!r} not in graph")
    conditioned = set(q.given)
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
    start = [(n, "up") for n in q.left]
    seen = set(start)
    queue = deque(start)
    while queue:
        node, direction = queue.popleft()
        if node in q.right:
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

    Each node gets an explicit noise parent ``u:N``.  Every descendant of an
    intervened node gets a copy ``N*`` driven by the same noise, with the
    intervened parents removed (they are clamped constants in that world).
    Returns the twin graph and a map from original names to copy names.
    """
    intervene_on = set(intervene_on)
    for n in intervene_on:
        if n not in g.nodes:
            raise UnknownNode(f"unknown node {n!r}")
    affected: set[str] = set()
    for x in intervene_on:
        affected |= g.descendants(x)
    affected -= intervene_on
    copy = {n: f"{n}*" for n in affected}
    nodes = list(g.nodes) + [f"u:{n}" for n in g.nodes] + list(copy.values())
    edges = list(g.edges) + [(f"u:{n}", n) for n in g.nodes]
    for n in affected:
        edges.append((f"u:{n}", copy[n]))
        for p in g.parents(n):
            if p in intervene_on:
                continue  # clamped to a constant in the intervened world
            edges.append((copy.get(p, p), copy[n]))
    return Dag(tuple(nodes), tuple(edges)), copy


def counterfactual_d_separated(g: Dag, outcome: str, intervene_on,
                               right, given) -> bool:
    """Graphical check of ``outcome(x) ⊥ right | given`` via a twin network."""
    twin, copy = twin_network(g, intervene_on)
    cf = copy.get(outcome, outcome)
    if cf == outcome:
        # outcome unaffected by the intervention: plain d-separation,
        # excluding trivial overlaps
        right = set(right) - {outcome}
    return d_separated(twin, CiQuery(frozenset({cf}), frozenset(right), frozenset(given)))


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

    def query(self) -> CiQuery:
        return CiQuery(frozenset(self.left), frozenset(self.right), frozenset(self.given))


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

#: figures each proposition speaks about (Proposition 5's two conclusions
#: apply to different figure families, handled in tests)
PROPOSITION_FIGURES: dict[int, tuple[str, ...]] = {
    1: ("fig2a", "fig2b", "fig2c"),
    2: ("fig3a", "fig3b", "fig3c"),
    3: ("fig4a", "fig4b"),
    4: ("fig5a", "fig5b", "fig5c"),
    5: ("fig2a", "fig2b", "fig2c", "fig3a", "fig3b", "fig4a", "fig4b",
        "fig3c", "fig6a", "fig6b", "fig6c"),
    6: ("fig6a", "fig6b", "fig6c"),
    7: ("fig7a", "fig7b"),
}

PROPOSITION5_UNCONDITIONAL = ("fig2a", "fig2b", "fig2c", "fig3a", "fig3b", "fig4a", "fig4b")
PROPOSITION5_GIVEN_V = ("fig3c", "fig6a", "fig6b", "fig6c")


@dataclass(frozen=True)
class ConclusionReport:
    label: str
    kind: str
    statement: str
    certified: bool | None      # None for simulation-only conclusions
    graphical_hint: bool | None # twin-network result, informational only


@dataclass(frozen=True)
class CheckReport:
    proposition: int
    conclusions: tuple[ConclusionReport, ...]

    @property
    def all_observational_certified(self) -> bool:
        return all(c.certified for c in self.conclusions if c.kind == "observational")


def check_proposition(g: Dag, prop_id: int, roles: dict[str, str] | None = None) -> CheckReport:
    """Certify a proposition's observational conclusions by d-separation.

    Counterfactual conclusions get ``certified=None`` (delegated to the
    structural-model oracle) plus an informational twin-network hint.
    """
    if prop_id not in PROPOSITIONS:
        raise InvalidDistribution(f"no proposition {prop_id}")
    roles = roles or {n: n for n in g.nodes}
    needed = {r for c in PROPOSITIONS[prop_id]
              for r in (*c.left, *c.right, *c.given, *c.intervene)}
    for r in needed:
        if r not in roles or roles[r] not in g.nodes:
            raise MissingRole(f"graph lacks a node for role {r!r}")

    def mapped(names):
        return tuple(roles[n] for n in names)

    reports = []
    for c in PROPOSITIONS[prop_id]:
        if c.kind == "observational":
            ok = d_separated(g, CiQuery(frozenset(mapped(c.left)),
                                        frozenset(mapped(c.right)),
                                        frozenset(mapped(c.given))))
            reports.append(ConclusionReport(c.label, c.kind, str(c.query()), ok, ok))
        else:
            hint = counterfactual_d_separated(
                g, roles[c.left[0]], mapped(c.intervene),
                set(mapped(c.right)), set(mapped(c.given)))
            stmt = f"{c.left[0]}({','.join(n.lower() for n in c.intervene)}) ⊥ " \
                   f"{','.join(c.right)} | {','.join(c.given) or '∅'}"
            reports.append(ConclusionReport(c.label, c.kind, stmt, None, hint))
    return CheckReport(prop_id, tuple(reports))


# ---------------------------------------------------------------------------
# design classification

#: proxy roles each design must fill from non-core nodes
_DESIGN_ROLES: dict[str, tuple[str, ...]] = {
    "outcome": ("Z", "V"),
    "treatment": ("Z", "V"),
    "cond-treatment": ("Z", "V"),
    "auxiliary": ("Z", "V", "C"),
    "outcome-rank-invariance": ("Z", "V"),
    "auxiliary-rank-invariance": ("Z", "V", "C"),
    "double-proxy": ("Z", "V"),
}

DESIGN_NAMES = tuple(_DESIGN_ROLES)


def _design_holds(g: Dag, design: str, roles: dict[str, str]) -> bool:
    def obs_conclusions(prop):
        return [c for c in PROPOSITIONS[prop] if c.kind == "observational"]

    def mapped(names):
        return tuple(roles[n] for n in names)

    def all_obs(prop) -> bool:
        return all(
            d_separated(g, CiQuery(frozenset(mapped(c.left)),
                                   frozenset(mapped(c.right)),
                                   frozenset(mapped(c.given))))
            for c in obs_conclusions(prop))

    if design == "outcome":
        return all_obs(1)
    if design == "treatment":
        return all_obs(2)
    if design == "cond-treatment":
        return all_obs(3)
    if design == "auxiliary":
        return all_obs(4)
    if design == "outcome-rank-invariance":
        return all_obs(6)
    if design == "auxiliary-rank-invariance":
        return all_obs(7)
    if design == "double-proxy":
        # conclusions ii. and iii. of the outcome-proxy proposition plus its
        # counterfactual conclusion iv., which the double-proxy strategy
        # needs and which is checkable on the twin network
        p1 = PROPOSITIONS[1]
        obs_ok = all(
            d_separated(g, CiQuery(frozenset(mapped(c.left)),
                                   frozenset(mapped(c.right)),
                                   frozenset(mapped(c.given))))
            for c in p1 if c.label in ("ii", "iii"))
        if not obs_ok:
            return False
        iv = next(c for c in p1 if c.label == "iv")
        return counterfactual_d_separated(
            g, roles[iv.left[0]], mapped(iv.intervene),
            set(mapped(iv.right)), set(mapped(iv.given)))
    raise InvalidDistribution(f"unknown design {design!r}")


def classify_designs(g: Dag, roles: dict[str, str] | None = None) -> frozenset:
    """Designs whose graphical prerequisites hold under some proxy-role assignment.

    ``roles`` must name the core nodes Y, X, W; remaining nodes are tried in
    every injective assignment to the proxy roles each design requires.
    """
    roles = roles or {}
    core = {r: roles.get(r, r) for r in ("Y", "X", "W")}
    for r, n in core.items():
        if n not in g.nodes:
            raise MissingRole(f"graph lacks a node for core role {r!r}")
    candidates = [n for n in g.nodes if n not in core.values()]
    found = set()
    for design, proxy_roles in _DESIGN_ROLES.items():
        if len(candidates) < len(proxy_roles):
            continue
        for combo in itertools.permutations(candidates, len(proxy_roles)):
            assignment = dict(core)
            assignment.update(dict(zip(proxy_roles, combo)))
            if _design_holds(g, design, assignment):
                found.add(design)
                break
    return frozenset(found)
