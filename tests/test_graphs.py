"""Graphs: d-separation, twin networks, propositions, design classification.

The reachability-based d-separation implementation is checked against an
independent oracle: separation in the moralized ancestral graph (the
classical equivalent criterion), implemented from scratch here.
"""

import argparse
import ast
import itertools
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (CENSUS_BASE, CENSUS_NODES, PROPOSITION5_GIVEN_V,
                      PROPOSITION5_UNCONDITIONAL, PROPOSITION_FIGURES, census_graphs)
from triproxy import graphs
from triproxy.errors import (CyclicGraph, EnumerationTooLarge, InvalidDistribution,
                             MissingRole, UnknownNode)
from triproxy.cli import build_parser
from triproxy.generators import FIGURE_DESIGNS
from triproxy.graphs import (DESIGNS, FIGURES, PROPOSITIONS, Dag, check_proposition,
                             classify_designs, counterfactual_d_separated, d_separated,
                             twin_network)


# ---------------------------------------------------------------------------
# independent oracle: moralized ancestral graph separation


def moral_separation(g: Dag, left: set, right: set, given: set) -> bool:
    relevant = left | right | given
    anc = set(relevant)
    changed = True
    while changed:
        changed = False
        for n in list(anc):
            for p in g.parents(n):
                if p not in anc:
                    anc.add(p)
                    changed = True
    edges = set()
    for b in anc:
        ps = [p for p in g.parents(b) if p in anc]
        for p in ps:
            edges.add(frozenset((p, b)))
        for p1, p2 in itertools.combinations(ps, 2):
            edges.add(frozenset((p1, p2)))
    # undirected reachability avoiding the conditioning set
    frontier = set(left)
    seen = set(frontier)
    while frontier:
        nxt = set()
        for n in frontier:
            for e in edges:
                if n in e:
                    (other,) = e - {n} or {n}
                    if other not in seen and other not in given:
                        nxt.add(other)
                        seen.add(other)
        frontier = nxt
    return not (seen & right)


def random_dag(rng, n_nodes: int, p_edge: float) -> Dag:
    names = [f"N{i}" for i in range(n_nodes)]
    edges = [(names[i], names[j]) for i in range(n_nodes)
             for j in range(i + 1, n_nodes) if rng.random() < p_edge]
    return Dag(tuple(names), tuple(edges))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(4, 7), st.floats(0.1, 0.6))
def test_d_separation_matches_moral_graph_oracle(seed, n, p):
    rng = np.random.default_rng(seed)
    g = random_dag(rng, n, p)
    nodes = list(g.nodes)
    rng.shuffle(nodes)
    left, right = {nodes[0]}, {nodes[1]}
    given = set(nodes[2:2 + rng.integers(0, n - 2)])
    assert d_separated(g, left, right, given) == moral_separation(g, left, right, given)


class TestDagBasics:
    def test_cycle_rejected(self):
        with pytest.raises(CyclicGraph):
            Dag(("A", "B"), (("A", "B"), ("B", "A")))

    def test_unknown_node(self):
        g = FIGURES["fig2a"]
        with pytest.raises(UnknownNode):
            g.parents("Q")

    @pytest.mark.parametrize("ask", [
        lambda g: g.children("Q"),
        lambda g: d_separated(g, {"Q"}, {"Y"}),
        lambda g: twin_network(g, {"Q"}),
    ], ids=["children", "d-separated", "twin-network"])
    def test_unknown_node_in_a_query(self, ask):
        with pytest.raises(UnknownNode, match="'Q'"):
            ask(FIGURES["fig2a"])

    @pytest.mark.parametrize("ask,message", [
        (lambda: d_separated(FIGURES["fig2a"], {"X"}, {"X", "Y"}), "pairwise disjoint"),
        (lambda: check_proposition(FIGURES["fig2a"], 99), "no proposition 99"),
    ], ids=["overlapping-query", "unknown-proposition"])
    def test_malformed_question_refused(self, ask, message):
        with pytest.raises(InvalidDistribution, match=message):
            ask()

    def test_topological_order_respects_edges(self):
        g = FIGURES["fig5a"]
        order = g.topological_order()
        pos = {n: i for i, n in enumerate(order)}
        assert all(pos[a] < pos[b] for a, b in g.edges)

    def test_descendants(self):
        g = FIGURES["fig2a"]
        assert "Y" in g.descendants("W")
        assert "Z" not in g.descendants("X")

    def test_json_roundtrip(self):
        g = FIGURES["fig3a"]
        assert Dag.from_dict(g.to_dict()) == g

    def test_parents_and_children_keep_edge_order(self):
        for g in FIGURES.values():
            for n in g.nodes:
                assert g.parents(n) == tuple(a for a, b in g.edges if b == n)
                assert g.children(n) == tuple(b for a, b in g.edges if a == n)

    def test_a_long_chain_builds_in_linear_time(self):
        """The parent and child maps take one pass over the edges; a scan of
        every edge per node took about 18 s on this chain."""
        nodes = tuple(f"N{i}" for i in range(20_000))
        start = time.perf_counter()
        g = Dag(nodes, tuple(zip(nodes, nodes[1:])))
        assert time.perf_counter() - start < 2.0
        assert g.parents("N0") == () and g.children("N0") == ("N1",)
        assert g.topological_order() == nodes


class TestTwinNetwork:
    def test_copies_only_for_descendants(self):
        g = FIGURES["fig2a"]
        twin, copies = twin_network(g, ("X",))
        assert copies["Y"] == ("Y", "*")
        # intervened nodes are clamped constants, not copied
        assert "X" not in copies and ("X", "*") not in twin.nodes
        # Z is not a descendant of X: no copy
        assert "Z" not in copies and ("Z", "*") not in twin.nodes

    def test_copy_drops_intervened_parents(self):
        g = FIGURES["fig2a"]
        twin, copies = twin_network(g, ("X",))
        assert ("W", ("Y", "*")) in twin.edges
        assert ("X", ("Y", "*")) not in twin.edges

    def test_shared_noise(self):
        g = FIGURES["fig2a"]
        twin, copies = twin_network(g, ("X",))
        assert (("u", "Y"), "Y") in twin.edges and (("u", "Y"), ("Y", "*")) in twin.edges
        # only a copied node's noise is explicit
        assert set(twin.nodes) - set(g.nodes) == {("u", "Y"), ("Y", "*")}

    def test_known_counterfactual(self):
        g = FIGURES["fig2a"]
        twin = twin_network(g, ("X",))
        assert counterfactual_d_separated(twin, "Y", {"X", "V"}, {"W"})
        # without conditioning on W the backdoor is open
        assert not counterfactual_d_separated(twin, "Y", {"X"}, set())
        # without X -> Y the outcome has no intervened copy: plain d-separation,
        # the outcome itself dropped from the right-hand side
        g = Dag(g.nodes, tuple(e for e in g.edges if e != ("X", "Y")))
        for right, given in (({"Y", "X", "V"}, {"W"}), ({"X"}, set()), ({"Z"}, set())):
            assert counterfactual_d_separated(twin_network(g, ("X",)), "Y", right, given) \
                == d_separated(g, {"Y"}, right - {"Y"}, given)


def full_twin_network(g: Dag, intervene_on) -> tuple[Dag, dict]:
    """Reference twin network: an explicit noise parent ``u:N`` on every
    node, and a copy ``N*`` of every descendant of an intervened node."""
    intervene_on = set(intervene_on)
    affected = set().union(*(g.descendants(x) for x in intervene_on)) - intervene_on
    copy = {n: f"{n}*" for n in affected}
    nodes = list(g.nodes) + [f"u:{n}" for n in g.nodes] + list(copy.values())
    edges = list(g.edges) + [(f"u:{n}", n) for n in g.nodes]
    for n in affected:
        edges.append((f"u:{n}", copy[n]))
        edges += [(copy.get(p, p), copy[n]) for p in g.parents(n) if p not in intervene_on]
    return Dag(tuple(nodes), tuple(edges)), copy


@pytest.mark.parametrize("seed", range(30))
def test_twin_network_agrees_with_the_full_construction(seed):
    """Dropping the noise nodes of uncopied nodes changes no verdict: every
    intervened set of one or two nodes, each outcome, and sampled
    (right, given) sets give the reference construction's answer."""
    rng = np.random.default_rng(seed)
    g = random_dag(rng, int(rng.integers(4, 8)), float(rng.uniform(0.2, 0.6)))
    nodes = list(g.nodes)
    for size in (1, 2):
        for intervene in itertools.combinations(nodes, size):
            for outcome in nodes:
                others = [n for n in nodes if n != outcome]
                for _ in range(3):
                    rng.shuffle(others)
                    n_right = int(rng.integers(1, len(others) + 1))
                    n_given = int(rng.integers(0, len(others) - n_right + 1))
                    right = set(others[:n_right])
                    given = set(others[n_right:n_right + n_given])
                    assert counterfactual_d_separated(
                        twin_network(g, intervene), outcome, right, given) \
                        == counterfactual_d_separated(
                            full_twin_network(g, intervene), outcome, right, given), \
                        (g, outcome, intervene, right, given)


EXPECTED_DESIGNS = {
    "fig1a": {"double-proxy", "outcome", "outcome-rank-invariance"},
    "fig1b": {"double-proxy"},
    "fig1c": {"cond-treatment"},
    "fig1d": {"auxiliary", "auxiliary-rank-invariance"},
    "fig2a": {"double-proxy", "outcome", "outcome-rank-invariance"},
    "fig2b": {"double-proxy", "outcome", "outcome-rank-invariance"},
    "fig2c": {"double-proxy", "outcome", "outcome-rank-invariance"},
    "fig3a": {"double-proxy", "treatment"},
    "fig3b": {"double-proxy", "treatment"},
    "fig3c": {"double-proxy", "treatment"},
    "fig4a": {"cond-treatment"},
    "fig4b": {"cond-treatment"},
    "fig5a": {"auxiliary", "auxiliary-rank-invariance"},
    "fig5b": {"auxiliary", "auxiliary-rank-invariance"},
    "fig5c": {"auxiliary", "auxiliary-rank-invariance"},
    "fig6a": {"outcome-rank-invariance"},
    "fig6b": {"outcome-rank-invariance"},
    "fig6c": {"outcome-rank-invariance"},
    "fig7a": {"auxiliary-rank-invariance"},
    "fig7b": {"auxiliary-rank-invariance"},
}


@pytest.mark.parametrize("figure", sorted(EXPECTED_DESIGNS))
def test_design_classification(figure):
    assert classify_designs(FIGURES[figure]) == frozenset(EXPECTED_DESIGNS[figure])


def test_fig1b_fails_triple_but_not_double():
    designs = classify_designs(FIGURES["fig1b"])
    assert "double-proxy" in designs
    assert not designs & {"outcome", "treatment", "cond-treatment", "auxiliary"}


def test_fig1c_fails_double_but_not_triple():
    designs = classify_designs(FIGURES["fig1c"])
    assert "double-proxy" not in designs
    assert "cond-treatment" in designs


def test_census_triple_and_double_proxy_conditions_are_non_nested():
    """Over every graph around the confounded core W -> X -> Y <- W, some
    graphs certify a triple design and not the double proxy, and others the
    double proxy and no triple design: neither set of conditional
    independences implies the other."""
    triple = {"outcome", "treatment", "cond-treatment", "auxiliary"}
    census = {frozenset(g.edges): classify_designs(g) for g in census_graphs()}
    assert len(census) == 1008
    assert Counter((bool(d & triple), "double-proxy" in d) for d in census.values()) == {
        (True, True): 52, (True, False): 12, (False, True): 28, (False, False): 916}
    assert Counter(name for d in census.values() for name in d) == {
        "outcome": 36, "treatment": 24, "cond-treatment": 20, "double-proxy": 80,
        "outcome-rank-invariance": 52}
    # one witness each way, both with W -> Z and W -> V
    assert census[frozenset(FIGURES["fig4a"].edges)] == {"cond-treatment"}
    assert census[frozenset(CENSUS_BASE + (("W", "Z"), ("W", "V"), ("X", "V"),
                                           ("Z", "Y")))] == {"double-proxy"}
    assert FIGURES["fig4a"].nodes == CENSUS_NODES


def test_counterfactual_conclusions_gate_certification():
    """fig1d without C -> Y passes the observational conclusions of
    Proposition 1 only with C in V's role; the node V, a cause of X and Y in
    no role, then breaks its conclusion iv, Y(x) ⊥ X,C | W, so the outcome
    designs are not certified."""
    g = FIGURES["fig1d"]
    edited = Dag(g.nodes, tuple(e for e in g.edges if e != ("C", "Y")))
    assert not counterfactual_d_separated(twin_network(edited, {"X"}), "Y", {"X", "C"}, {"W"})
    assert classify_designs(edited) == {"auxiliary", "auxiliary-rank-invariance"}


def test_classify_builds_one_twin_network_per_intervened_set(monkeypatch):
    calls = []
    build = graphs.twin_network

    def counted(g, intervene_on):
        calls.append(frozenset(intervene_on))
        return build(g, intervene_on)

    monkeypatch.setattr(graphs, "twin_network", counted)
    for name, g in FIGURES.items():
        calls.clear()
        assert classify_designs(g) == EXPECTED_DESIGNS[name]
        assert len(calls) == len(set(calls)), name
    calls.clear()
    classify_designs(FIGURES["fig1d"])
    assert calls == [frozenset({"X"})]
    # Proposition 5's two conclusions intervene on one set: one build
    calls.clear()
    check_proposition(FIGURES["fig2a"], 5)
    assert calls == [frozenset({"X", "W"})]


def test_design_registry_is_the_one_list_of_designs():
    """Every design the CLI, the generators and the classifier name is a
    record of ``DESIGNS``, each staged record reads the axes of its stage,
    and the proxy roles come out of the conclusions each design needs."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for verb in ("identify", "relabel", "bounds"):
        design = next(a for a in sub.choices[verb]._actions if a.dest == "design")
        assert set(design.choices) <= set(DESIGNS), verb
    assert {d.removeprefix("bounds-") for d in FIGURE_DESIGNS.values()} <= set(DESIGNS)
    assert set().union(*map(classify_designs, FIGURES.values())) == set(DESIGNS)
    for name, d in DESIGNS.items():
        assert d.name == name
        if d.axes:
            assert set(d.axes) == {"Z", d.signal, "V"} | set(d.second_stage), name
    assert {name: d.proxy_roles() for name, d in DESIGNS.items()} == {
        "outcome": ("Z", "V"), "treatment": ("Z", "V"), "cond-treatment": ("Z", "V"),
        "auxiliary": ("Z", "V", "C"), "outcome-rank-invariance": ("Z", "V"),
        "auxiliary-rank-invariance": ("Z", "V", "C"), "double-proxy": ("Z", "V")}


#: the modules of the design registry, which a verb can import without numpy
NUMPY_FREE = ("graphs.py", "errors.py", "tolerances.py")


def _foreign_imports(source: str) -> list[str]:
    """The modules ``source`` imports that are neither in the standard
    library nor among ``NUMPY_FREE`` (a relative import is written '.name')."""
    own = {name.removesuffix(".py") for name in NUMPY_FREE}
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [(0, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [(node.level, node.module or a.name) for a in node.names]
        else:
            continue
        for level, name in names:
            parts = ["triproxy"] * bool(level) + name.split(".")
            if parts[0] == "triproxy":
                if len(parts) > 1 and parts[1] in own:
                    continue
            elif parts[0] in sys.stdlib_module_names:
                continue
            out.append("." * level + name)
    return out


def test_design_registry_imports_no_numpy():
    src = Path(graphs.__file__).parent
    assert {name: _foreign_imports((src / name).read_text(encoding="utf-8"))
            for name in NUMPY_FREE} == {name: [] for name in NUMPY_FREE}
    # the scan does see a foreign import, in every form
    probe = ("from __future__ import annotations\nimport math\nimport numpy as np\n"
             "from .errors import X\nfrom .prob import Y\nfrom . import pipelines\n"
             "from triproxy.tolerances import Z\nimport triproxy.scm\n")
    assert _foreign_imports(probe) == ["numpy", ".prob", ".pipelines", "triproxy.scm"]


#: the triproxy modules a fresh interpreter holds after importing the key
LOADED_BY = {"triproxy": ["triproxy"],
             "triproxy.graphs": ["triproxy", "triproxy.errors", "triproxy.graphs",
                                 "triproxy.tolerances"]}


@pytest.mark.parametrize("module", sorted(LOADED_BY))
def test_each_module_is_imported_on_its_own(module):
    """Importing the package loads none of its modules, and a module loads
    only those it imports itself."""
    probe = (f"import sys, {module}; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'triproxy'))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         timeout=60, check=True,
                         env={**os.environ, "PYTHONPATH": str(Path(graphs.__file__).parents[1])})
    assert out.stdout.strip() == str(LOADED_BY[module])


def test_only_the_lazy_module_imports_numpy():
    """Every other module binds ``np`` through ``triproxy._np``, so the graph
    verbs never load numpy."""
    src = Path(graphs.__file__).parent
    found = {path.name: [name for name in _foreign_imports(path.read_text(encoding="utf-8"))
                         if name.split(".")[0] == "numpy"]
             for path in sorted(src.glob("*.py")) if path.name != "_np.py"}
    assert {name: imports for name, imports in found.items() if imports} == {}


@pytest.mark.parametrize("prop,figure", [
    (p, f) for p, figs in PROPOSITION_FIGURES.items() for f in figs])
def test_propositions_certified_on_their_graphs(prop, figure):
    rep = check_proposition(FIGURES[figure], prop)
    assert rep.all_observational_certified
    if prop == 5:
        certified = {c.label: ok for c, ok in rep.conclusions}
        if figure in PROPOSITION5_UNCONDITIONAL:
            assert certified["i"]
        if figure in PROPOSITION5_GIVEN_V:
            assert certified["ii"]
    else:
        assert all(ok for _, ok in rep.conclusions)


def test_proposition1_not_certified_on_fig1b():
    rep = check_proposition(FIGURES["fig1b"], 1)
    assert not rep.all_observational_certified


def test_missing_role():
    g = Dag(("Y", "X", "W"), (("X", "Y"), ("W", "X"), ("W", "Y")))
    with pytest.raises(MissingRole):
        check_proposition(g, 1)


def test_classify_requires_core_nodes():
    g = Dag(("A", "B"), (("A", "B"),))
    with pytest.raises(MissingRole):
        classify_designs(g)


def outcome_fan(n: int) -> Dag:
    """W -> X -> Y <- W with ``n`` children of Y: no design fits, so
    classification tries every proxy-role assignment."""
    proxies = tuple(f"P{i}" for i in range(n))
    return Dag(("Y", "X", "W") + proxies,
               (("X", "Y"), ("W", "X"), ("W", "Y")) + tuple(("Y", p) for p in proxies))


def test_classify_guards_the_role_assignments(monkeypatch):
    monkeypatch.setattr(graphs, "ROLE_ASSIGNMENT_GUARD", 24)
    assert classify_designs(outcome_fan(4)) == frozenset()       # 4 * 3 * 2 = 24
    with pytest.raises(EnumerationTooLarge, match="60 assignments.*over the 24 guard"):
        classify_designs(outcome_fan(5))
