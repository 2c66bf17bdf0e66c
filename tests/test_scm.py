"""Structural models: the factorized oracle and the effect summary vs
brute-force noise enumeration, counterfactual consistency, guards."""

import itertools
import tracemalloc

import numpy as np
import pytest

from triproxy.errors import (EnumerationTooLarge, InvalidDistribution, MissingRole,
                             NonBinaryTreatment, UnknownNode)
from triproxy.generators import figure_model, random_npsem, random_onto_table, standard_spaces
from triproxy.graphs import FIGURES, PROPOSITIONS, Conclusion
from triproxy import scm
from triproxy.prob import VarSpace, marginalize
from triproxy.scm import (ENUMERATION_GUARD, NodeSpec, Npsem, arm_label, check_conclusion,
                          counterfactual_joint, effects, observable_joint, observed_joint)


def brute_force_joint(m: Npsem) -> np.ndarray:
    """Slow per-configuration loop over all noise tuples; no vectorization."""
    cards = tuple(n.space.cardinality for n in m.nodes)
    out = np.zeros(cards)
    noise_ranges = [range(n.noise_card) for n in m.nodes]
    for cfg in itertools.product(*noise_ranges):
        weight = 1.0
        vals = {}
        for node, u in zip(m.nodes, cfg):
            weight *= node.noise_pmf[u]
            idx = tuple(vals[p] for p in node.parents) + (u,)
            vals[node.space.name] = int(node.table[idx])
        out[tuple(vals[n.space.name] for n in m.nodes)] += weight
    return out


def brute_force_counterfactual(m: Npsem, intervene_on, outcome="Y",
                               keep=None) -> np.ndarray:
    """Cross-world joint by evaluating every noise configuration in every
    arm at once; same axis order as ``counterfactual_joint``."""
    cards = [n.noise_card for n in m.nodes]
    grid = np.indices(cards).reshape(len(cards), -1)
    weights = np.ones(grid.shape[1])
    for i, n in enumerate(m.nodes):
        weights *= n.noise_pmf[grid[i]]

    def evaluate(clamp):
        vals = {}
        for i, n in enumerate(m.nodes):
            name = n.space.name
            if name in clamp:
                vals[name] = np.full(grid.shape[1], clamp[name])
            else:
                vals[name] = n.table[tuple(vals[p] for p in n.parents) + (grid[i],)]
        return vals

    arms = itertools.product(*[range(m[n].space.cardinality) for n in intervene_on])
    columns = [evaluate(dict(zip(intervene_on, arm)))[outcome] for arm in arms]
    factual = evaluate({})
    keep = m.names if keep is None else keep
    columns += [factual[n] for n in keep]
    shape = ((m[outcome].space.cardinality,) * (len(columns) - len(keep))
             + tuple(m[n].space.cardinality for n in keep))
    flat = np.ravel_multi_index(tuple(columns), shape)
    return np.bincount(flat, weights=weights, minlength=int(np.prod(shape))).reshape(shape)


def small_model(seed=0) -> Npsem:
    dag = FIGURES["fig2a"]
    spaces = {"W": VarSpace("W", 2), "X": VarSpace("X", 2),
              "Y": VarSpace("Y", 2), "Z": VarSpace("Z", 2),
              "V": VarSpace("V", 2)}
    return random_npsem(dag, spaces, seed=seed)


class TestEnumeration:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        m = small_model(seed)
        joint = observable_joint(m)
        np.testing.assert_allclose(joint.values, brute_force_joint(m), atol=1e-14)

    def test_observed_drops_latent(self):
        m = small_model()
        assert "W" not in observed_joint(m).names
        np.testing.assert_allclose(observed_joint(m).values.sum(), 1.0)

    def test_guard(self):
        # 10^9 noise configurations over an 8-cell joint: each node's noise
        # is summed out on its own, so the joint is exact and cheap
        pmf = np.full(10 ** 3, 1e-3)
        m = Npsem(tuple(NodeSpec(VarSpace(name, 2), (), np.zeros(10 ** 3, dtype=np.int64), pmf)
                        for name in "ABC"))
        joint = observable_joint(m)
        assert joint.values.shape == (2, 2, 2)
        assert joint.values[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
        # 300^3 joint cells are over the guard: refused before allocation
        wide = Npsem(tuple(NodeSpec(VarSpace(name, 300), (), np.zeros(1, dtype=np.int64),
                                    np.ones(1)) for name in "ABC"))
        assert 300 ** 3 > ENUMERATION_GUARD
        with pytest.raises(EnumerationTooLarge):
            observable_joint(wide)

    def test_guard_bounds_kernels_not_only_output(self):
        # a 4-cell cross-world output whose kernel of B over (A, B) alone
        # holds 4000^2 cells
        a, b = VarSpace("A", 4000), VarSpace("B", 4000)
        m = Npsem((
            NodeSpec(VarSpace("X", 2), (), np.arange(2), np.full(2, 0.5)),
            NodeSpec(a, (), np.arange(4000), np.full(4000, 1 / 4000)),
            NodeSpec(b, ("A",), np.arange(4000).reshape(4000, 1), np.ones(1)),
            NodeSpec(VarSpace("Y", 2), ("X", "B"), np.zeros((2, 4000, 1), dtype=np.int64),
                     np.ones(1)),
        ))
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationTooLarge):
                counterfactual_joint(m, ("X",), keep=())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20      # the kernel alone would take 128 MB

    def test_bad_parent_order_rejected(self):
        with pytest.raises(InvalidDistribution):
            Npsem((NodeSpec(VarSpace("A", 2), ("B",),
                            np.zeros((2, 2), dtype=np.int64), np.full(2, 0.5)),))

    def test_parent_listed_twice_rejected(self):
        # the table fits the repeated axis, so only the parent list is at fault
        with pytest.raises(InvalidDistribution, match="B: parent 'A' listed twice"):
            NodeSpec(VarSpace("B", 2), ("A", "A"), np.zeros((2, 2, 1), dtype=np.int64),
                     np.ones(1))


class TestPlanCache:
    """The elimination is planned once per structure and shared by every
    model with that structure, whatever its noise cardinalities."""

    def test_models_on_one_dag_share_one_plan(self):
        dag, spaces = FIGURES["fig2a"], standard_spaces(2)
        first, second = (random_npsem(dag, spaces, seed=s) for s in (0, 1))
        # the second model's Y takes 9 noise levels instead of the default 6
        rng = np.random.default_rng(1)
        y = NodeSpec(spaces["Y"], second["Y"].parents,
                     random_onto_table(rng, second["Y"].table.shape[:-1], 3, 9),
                     rng.dirichlet(np.ones(9)))
        models = [first, Npsem(tuple(y if n.space.name == "Y" else n for n in second.nodes),
                               second.latent)]
        assert models[0]["Y"].noise_card != models[1]["Y"].noise_card
        scm._PLANS.clear()
        for m in models:
            np.testing.assert_allclose(observable_joint(m).values, brute_force_joint(m),
                                       rtol=0, atol=1e-14)
            for keep in (("W", "X"), None):
                np.testing.assert_allclose(
                    counterfactual_joint(m, ("X",), keep=keep).values,
                    brute_force_counterfactual(m, ("X",), keep=keep), rtol=0, atol=1e-13)
            assert len(scm._PLANS) == 3

    def test_noise_guard_runs_on_a_cached_plan(self, monkeypatch):
        # Y(0) and Y(1) read the two clamped copies of B, so Y's noise sum
        # runs over 400^2 parent configurations per noise level
        def model(y_noise: int) -> Npsem:
            return Npsem((
                NodeSpec(VarSpace("X", 2), (), np.arange(2), np.full(2, 0.5)),
                NodeSpec(VarSpace("B", 400), ("X",), np.tile(np.arange(400), (2, 1)),
                         np.full(400, 1 / 400)),
                NodeSpec(VarSpace("Y", 2), ("B",), np.zeros((400, y_noise), dtype=np.int64),
                         np.full(y_noise, 1 / y_noise)),
            ))
        small, big = model(2), model(100)
        assert 400 ** 2 * 100 > ENUMERATION_GUARD
        assert counterfactual_joint(small, ("X",), keep=()).values[0, 0] == pytest.approx(1)
        monkeypatch.setattr(scm, "_plan", None)      # any new plan would fail
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationTooLarge, match="noise sum of 'Y'"):
                counterfactual_joint(big, ("X",), keep=())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20      # the noise sum's indices alone would take 128 MB

    def test_cache_holds_at_most_its_bound(self):
        for card in range(1, scm.PLAN_CACHE_SIZE + 10):
            m = Npsem((NodeSpec(VarSpace("A", card), (), np.arange(card),
                                np.full(card, 1 / card)),))
            observable_joint(m)
            assert len(scm._PLANS) <= scm.PLAN_CACHE_SIZE
        assert len(scm._PLANS) == scm.PLAN_CACHE_SIZE


def _cross_check_cases():
    for fig in FIGURES:
        for K in (2, 3):
            keeps = [("W", "X"), ("W",), None, ("V",)]
            for keep in keeps:
                yield fig, K, ("X",), keep
            if K == 2:
                for keep in keeps:
                    yield fig, K, ("X", "W"), keep


class TestFactorizedOracle:
    """Enumeration, factorized oracle and identification are independent
    paths; these tests tie the first two together on every figure graph."""

    @pytest.mark.parametrize("fig,K,arms,keep", list(_cross_check_cases()))
    def test_matches_enumeration(self, fig, K, arms, keep):
        m = random_npsem(FIGURES[fig], standard_spaces(K), seed=K)
        joint = counterfactual_joint(m, arms, keep=keep)
        want = brute_force_counterfactual(m, arms, keep=keep)
        assert joint.values.shape == want.shape
        np.testing.assert_allclose(joint.values, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("fig", sorted(FIGURES))
    def test_observable_matches_enumeration(self, fig):
        m = random_npsem(FIGURES[fig], standard_spaces(3), seed=3)
        # with no intervention there is one arm, Y(), equal to the factual Y
        want = brute_force_counterfactual(m, (), keep=m.names).sum(axis=0)
        np.testing.assert_allclose(observable_joint(m).values, want, rtol=0, atol=1e-13)

    def test_clamped_outcome_is_a_point_mass(self):
        m = small_model(1)
        joint = counterfactual_joint(m, ("Y",), keep=("X",))
        want = brute_force_counterfactual(m, ("Y",), keep=("X",))
        np.testing.assert_allclose(joint.values, want, rtol=0, atol=1e-13)

    def test_unaffected_outcome_repeats_the_factual_axis(self):
        # Z is not downstream of X, so Z(x) is the factual Z in every arm
        m = small_model(2)
        joint = counterfactual_joint(m, ("X",), outcome="Z", keep=("Z", "W"))
        want = brute_force_counterfactual(m, ("X",), outcome="Z", keep=("Z", "W"))
        np.testing.assert_allclose(joint.values, want, rtol=0, atol=1e-13)

    def test_many_single_level_nodes(self):
        # more axes than einsum has subscripts, all of size one
        m = Npsem(tuple(NodeSpec(VarSpace(f"N{i}", 1), (), np.zeros(1, dtype=np.int64),
                                 np.ones(1)) for i in range(60)))
        assert observable_joint(m).values.shape == (1,) * 60


def enumerated_effects(m: Npsem) -> dict:
    """The effect summary in plain numpy from the brute-force cross-world
    joint, one latent state and one factual arm at a time."""
    b = brute_force_counterfactual(m, ("X",), keep=("W", "X"))   # (Y(0), Y(1), W, X)
    y = m["Y"].space.level_values()
    total = [np.einsum("a,abwx->wx", y, b), np.einsum("b,abwx->wx", y, b)]
    w = np.array([b[:, :, k].sum() for k in range(b.shape[2])])
    cate = np.array([(total[1][k].sum() - total[0][k].sum()) / w[k] for k in range(w.size)])
    treated = [(total[1][:, x].sum() - total[0][:, x].sum()) / b[..., x].sum() for x in (0, 1)]
    atoms, cdf = [], []
    for c, p in sorted(zip(cate, w)):
        if atoms and c - prev <= 1e-12:
            cdf[-1] += p
        else:
            atoms.append(c)
            cdf.append((cdf[-1] if cdf else 0.0) + p)
        prev = c
    return {"ate": float(w @ cate), "att": treated[1], "atu": treated[0],
            "pot_y": np.stack([b.sum(axis=(1, 2, 3)), b.sum(axis=(0, 2, 3))], axis=1),
            "cate": cate, "w": w, "beta_atoms": np.array(atoms), "beta_cdf": np.array(cdf)}


class TestEffects:
    """``effects`` against an independent summary of brute-force enumeration."""

    @pytest.mark.parametrize("fig", sorted(FIGURES))
    @pytest.mark.parametrize("K", [2, 3])
    def test_matches_enumeration(self, fig, K):
        m = random_npsem(FIGURES[fig], standard_spaces(K), seed=K)
        got, want = effects(m), enumerated_effects(m)
        assert set(got) == set(want)
        for key in want:
            assert np.shape(got[key]) == np.shape(want[key]), key
            np.testing.assert_allclose(got[key], want[key], rtol=0, atol=1e-12, err_msg=key)

    def test_reads_the_one_memoized_joint(self):
        m = random_npsem(FIGURES["fig2a"], standard_spaces(2), seed=4)
        effects(m)
        assert list(m._joints.values()) == [counterfactual_joint(m, ("X",), keep=("W", "X"))]

    def test_needs_exactly_one_latent_node(self):
        m = small_model(4)
        for latent in ((), ("W", "V")):
            with pytest.raises(MissingRole):
                effects(Npsem(m.nodes, latent))

    def test_needs_a_binary_treatment(self):
        spaces = standard_spaces(3)
        spaces["X"] = VarSpace("X", 3)
        m = random_npsem(FIGURES["fig2a"], spaces, seed=0)
        with pytest.raises(NonBinaryTreatment):
            effects(m)


class TestCounterfactuals:
    def test_consistency_is_exact(self):
        # on the event X = x the arm Y(x) coincides with the factual outcome
        for seed in range(5):
            m = small_model(seed)
            rest = tuple(n for n in m.names if n not in ("Y", "X"))
            fact = observable_joint(m).reorder(("Y", "X") + rest).values
            joint = counterfactual_joint(m, ("X",), outcome="Y")
            for x in (0, 1):
                name = arm_label("Y", (x,))
                arm = marginalize(joint, {arm_label("Y", (1 - x,)), "Y"})
                arm = arm.reorder((name, "X") + rest).values
                assert np.abs(arm[:, x] - fact[:, x]).max() <= 1e-15

    def test_arm_marginal_is_interventional_law(self):
        # f(Y(x)) must equal the truncated-factorization intervention law,
        # computed here by clamping X in a re-built model.
        m = small_model(3)
        joint = counterfactual_joint(m, ("X",))
        for x in (0, 1):
            arm = marginalize(joint, set(joint.names) - {arm_label("Y", (x,))})
            clamped = Npsem(tuple(
                NodeSpec(n.space, (), np.full(1, x, dtype=np.int64), np.ones(1))
                if n.space.name == "X" else n for n in m.nodes))
            truth = marginalize(observable_joint(clamped),
                                set(m.names) - {"Y"})
            np.testing.assert_allclose(arm.values, truth.values, atol=1e-14)

    def test_counterfactual_ci_true_on_certified_graph(self):
        # fig2a satisfies Y(x) ⊥ (X,V) | W structurally (Proposition 1 iv.)
        m = figure_model("fig2a", K=2, seed=5)
        (iv,) = [c for c in PROPOSITIONS[1] if c.label == "iv"]
        assert str(iv) == "Y(x) ⊥ X,V | W"
        assert check_conclusion(m, iv)

    def test_counterfactual_ci_false_with_open_backdoor(self):
        # unconditionally, Y(x) and X are confounded through W
        m = figure_model("fig2a", K=2, seed=5)
        assert not check_conclusion(
            m, Conclusion("iv", "counterfactual", ("Y",), ("X",), (), ("X",)))

    def test_observational_conclusion_false_on_an_open_path(self):
        # fig2a has V -> X, so Proposition 2 i. (V ⊥ X,Z | W) fails there
        m = figure_model("fig2a", K=2, seed=5)
        (i,) = [c for c in PROPOSITIONS[2] if c.label == "i"]
        assert not check_conclusion(m, i)

    def test_unknown_intervention_node(self):
        with pytest.raises(UnknownNode):
            counterfactual_joint(small_model(), ("Q",))


class TestJointMemo:
    """Each exact joint is computed once per model and then handed out again."""

    def test_repeats_return_the_same_object(self):
        m = figure_model("fig2a", K=2, seed=0)
        assert observable_joint(m) is observable_joint(m)
        cf = counterfactual_joint(m, ("X",), keep=("W", "X"))
        assert counterfactual_joint(m, ("X",), keep=("W", "X")) is cf
        assert counterfactual_joint(m, ("X",), keep=("W",)) is not cf

    @pytest.mark.parametrize("figure", ["fig2a", "fig3a", "fig4a"])
    def test_fresh_model_computes_the_same_values(self, figure):
        m = figure_model(figure, K=3, seed=1)
        requests = (observable_joint, observed_joint,
                    lambda t: counterfactual_joint(t, ("X",), keep=("W", "X")),
                    lambda t: counterfactual_joint(t, ("X", "W"), keep=()))
        kept = [f(m) for f in requests]
        back = Npsem.from_dict(m.to_dict())
        assert back._joints == {}
        for f, old in zip(requests, kept):
            new = f(back)
            assert new.names == old.names
            assert np.array_equal(new.values, old.values)

    def test_refused_request_raises_every_time_and_stores_nothing(self):
        wide = Npsem(tuple(NodeSpec(VarSpace(name, 300), (), np.zeros(1, dtype=np.int64),
                                    np.ones(1)) for name in "ABC"))
        for _ in range(3):
            with pytest.raises(EnumerationTooLarge):
                observable_joint(wide)
        assert wide._joints == {}

    def test_equality_and_repr_ignore_the_memo(self):
        m = small_model(3)
        fresh = Npsem(m.nodes, m.latent)
        observable_joint(m)
        assert m._joints and not fresh._joints
        assert m == fresh
        assert repr(m) == repr(fresh)


class TestSerialization:
    def test_roundtrip(self):
        m = small_model(4)
        back = Npsem.from_dict(m.to_dict())
        assert back.latent == m.latent
        for a, b in zip(m.nodes, back.nodes):
            assert a.space == b.space and a.parents == b.parents
            np.testing.assert_array_equal(a.table, b.table)
            np.testing.assert_allclose(a.noise_pmf, b.noise_pmf)
        np.testing.assert_allclose(observable_joint(back).values,
                                   observable_joint(m).values)

    def test_graph_matches_figure(self):
        m = figure_model("fig2a", K=2, seed=0)
        g = m.graph()
        assert set(g.edges) == set(FIGURES["fig2a"].edges)
