"""Identification pipelines against the exact structural-model oracle,
plus failure modes and invariances."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_cdf_match
from triproxy import pipelines
from triproxy.errors import (EigenGapExhausted, MissingLevels,
                             NonBinaryTreatment, RankDeficient, SolveIllConditioned,
                             TriproxyError, UnknownAxis, ZeroConditioningCell)
from triproxy.generators import (FIGURE_DESIGNS, PIPELINE_FIGURES,
                                 encode_kernel, figure_model, random_npsem,
                                 separated_kernel, standard_spaces)
from triproxy.graphs import DESIGNS, FIGURES
from triproxy.pipelines import (QTE_TAUS, LatentOutcomeModel, estimands,
                                identify_auxiliary_proxy,
                                identify_cond_treatment_proxy,
                                identify_outcome_proxy,
                                identify_treatment_proxy, potential_joint,
                                _deconvolve, _left_quantile_index, _slice_joint)
from triproxy.prob import ProbTensor, VarSpace, marginalize, restrict
from triproxy.scm import effects, observed_joint
from triproxy.spectral import COMPLETENESS_LABEL, canonical_order, hs_decompose

PIPELINES = {
    "outcome": identify_outcome_proxy,
    "treatment": identify_treatment_proxy,
    "cond-treatment": identify_cond_treatment_proxy,
    "auxiliary": identify_auxiliary_proxy,
}


def run_pipeline(m, K):
    return PIPELINES[FIGURE_DESIGNS[m_figure(m)]](observed_joint(m), K)


def m_figure(m):
    edges = set(m.graph().edges)
    for name, g in FIGURES.items():
        if set(g.edges) == edges:
            return name
    raise AssertionError("model graph matches no builtin figure")


class TestAgainstOracle:
    @pytest.mark.parametrize("figure", PIPELINE_FIGURES)
    @pytest.mark.parametrize("K", [2, 3])
    def test_effects_match(self, figure, K):
        m = figure_model(figure, K=K, seed=101)
        rep = estimands(run_pipeline(m, K))
        truth = effects(m)
        assert abs(rep.ate - truth["ate"]) < 1e-8
        assert abs(rep.att - truth["att"]) < 1e-8
        assert abs(rep.atu - truth["atu"]) < 1e-8
        np.testing.assert_allclose(rep.pot_y, truth["pot_y"], atol=1e-8)
        assert_cdf_match(rep.beta_atoms, rep.beta_cdf,
                         truth["beta_atoms"], truth["beta_cdf"], 1e-8)

    @pytest.mark.parametrize("figure", ["fig2a", "fig3a", "fig4a", "fig5a"])
    def test_latent_kernels_match(self, figure):
        """Recovered f(y | w, x) and f(w) match the generating model up to
        the canonical latent relabeling (located via the CATE values)."""
        K = 3
        m = figure_model(figure, K=K, seed=7)
        model = run_pipeline(m, K).canonicalized()
        rep = estimands(model)
        truth = effects(m)
        truth_cate = truth["cate"]
        # match latent states by their effect values
        perm = [int(np.argmin(np.abs(truth_cate - b))) for b in rep.beta]
        assert sorted(perm) == list(range(K))
        np.testing.assert_allclose(rep.beta, truth_cate[perm], atol=1e-8)
        np.testing.assert_allclose(rep.w_marginal,
                                   truth["w"][perm], atol=1e-8)


class TestStructuralIdentities:
    @pytest.mark.parametrize("figure", ["fig2a", "fig3a", "fig4a", "fig5a"])
    def test_observed_yx_consistency(self, figure):
        """The assembled model must reproduce the observed (Y, X) margin."""
        m = figure_model(figure, K=2, seed=9)
        joint = observed_joint(m)
        model = run_pipeline(m, 2)
        truth = marginalize(joint, set(joint.names) - {"Y", "X"})
        np.testing.assert_allclose(model.observed_yx(),
                                   truth.reorder(("Y", "X")).values, atol=1e-8)

    def test_unconfounded_model_equals_naive_contrast(self):
        """When the treatment ignores the latent state, the pipeline ATE
        equals the plain difference of observed conditional means."""
        dag = FIGURES["fig2a"]
        spaces = standard_spaces(2)
        rng = np.random.default_rng(12)
        # X must ignore W and V (V is W's child, so it would leak W): inject
        # a kernel constant across both parents
        x_pmf = rng.dirichlet(np.ones(2))
        x_kernel = np.tile(x_pmf[:, None, None], (1, 2, 3))  # (x, w, v)
        m = random_npsem(dag, spaces, seed=12, kernels={"X": x_kernel})
        joint = observed_joint(m)
        rep = estimands(identify_outcome_proxy(joint, 2))
        yx = marginalize(joint, set(joint.names) - {"Y", "X"}).reorder(("Y", "X"))
        cond = yx.values / yx.values.sum(axis=0)
        y = np.asarray(joint.axis("Y").level_values())
        naive = float(y @ (cond[:, 1] - cond[:, 0]))
        truth = effects(m)
        assert abs(naive - truth["ate"]) < 1e-10  # premise: no confounding
        assert abs(rep.ate - naive) < 1e-8

    def test_treatment_pipeline_recovers_x_given_w(self):
        """Forward check: f(x | w) implied by the recovered joint matches the
        generating structural kernel."""
        K = 2
        dag = FIGURES["fig3a"]
        spaces = standard_spaces(K)
        rng = np.random.default_rng(21)
        x_given_w = np.array([[0.8, 0.3], [0.2, 0.7]])   # (x, w), well separated
        m = random_npsem(dag, spaces, seed=21, kernels={"X": x_given_w})
        model = identify_treatment_proxy(observed_joint(m), K)
        wx = model.wx_joint.values
        got = (wx / wx.sum(axis=1, keepdims=True)).T      # f(x | w)
        # align by columns of f(x | w)
        cost = np.abs(got[:, :, None] - x_given_w[:, None, :]).sum(axis=0)
        perm = cost.argmin(axis=1)
        assert sorted(perm) == [0, 1]
        np.testing.assert_allclose(got, x_given_w[:, perm], atol=1e-7)

    @pytest.mark.parametrize("figure", ["fig2a", "fig3a", "fig4a", "fig5a"])
    def test_every_design_factorizes_and_deconvolves_once(self, figure, monkeypatch):
        calls = []

        def counted(fn):
            def wrapper(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(pipelines, "hs_decompose", counted(hs_decompose))
        monkeypatch.setattr(pipelines, "_deconvolve", counted(pipelines._deconvolve))
        run_pipeline(figure_model(figure, K=2, seed=4), 2)
        assert sorted(calls) == ["_deconvolve", "hs_decompose"]

    def test_potential_joint_mass_and_margin(self):
        m = figure_model("fig5a", K=2, seed=4)
        model = identify_auxiliary_proxy(observed_joint(m), 2)
        for x1 in (0, 1):
            p = potential_joint(model, x1)
            np.testing.assert_allclose(p.values.sum(), 1.0, atol=1e-8)
            # X margin of every arm is the factual treatment law
            fx = marginalize(observed_joint(m),
                             set(observed_joint(m).names) - {"X"}).values
            np.testing.assert_allclose(p.values.sum(axis=(0, 1)), fx, atol=1e-8)


class TestInvariances:
    def test_pipeline_outputs_are_in_canonical_order(self):
        # the pipelines order latent states as canonical_order does, so the
        # report's own canonicalization never reorders them
        for figure in PIPELINE_FIGURES:
            for K in (2, 3):
                for seed in range(4):
                    z = run_pipeline(figure_model(figure, K, seed), K).z_given_w
                    assert np.array_equal(canonical_order(z), np.arange(K)), \
                        (figure, K, seed)

    @pytest.mark.parametrize("figure", PIPELINE_FIGURES)
    def test_proxy_kernel_columns_sum_to_one(self, figure):
        # the model holds hs_decompose's f(z | w), normalized there and only there
        for K in (2, 3, 4):
            for seed in range(5):
                z = run_pipeline(figure_model(figure, K, seed), K).z_given_w
                assert z.shape == (K + 1, K)
                assert np.abs(z.sum(axis=0) - 1.0).max() <= 1e-15, (K, seed)

    def test_canonicalized_returns_a_canonical_model_itself(self):
        model = identify_outcome_proxy(observed_joint(figure_model("fig2a", K=3, seed=15)), 3)
        assert model.canonicalized() is model
        back = model.permuted(np.array([2, 0, 1])).canonicalized()
        for got, want in ((back.arm_laws, model.arm_laws),
                          (back.wx_joint.values, model.wx_joint.values),
                          (back.z_given_w, model.z_given_w)):
            assert got.tobytes() == want.tobytes()

    def test_ulp_perturbed_tied_joint_keeps_state_effects(self):
        joint = observed_joint(figure_model("fig5b", K=2, seed=5))
        z = identify_auxiliary_proxy(joint, 2).z_given_w
        assert abs(z[0, 0] - z[0, 1]) < 1e-12       # tied in the first level
        values = joint.values.copy()
        up = np.random.default_rng(0).random(values.shape) < 0.5
        values[up] = np.nextafter(values[up], np.inf)
        perturbed = ProbTensor.build(joint.axes, values)
        beta = [estimands(identify_auxiliary_proxy(j, 2)).beta for j in (joint, perturbed)]
        np.testing.assert_allclose(beta[1], beta[0], rtol=0, atol=1e-9)

    def test_reports_bit_identical_under_latent_permutation(self):
        m = figure_model("fig2a", K=3, seed=15)
        model = identify_outcome_proxy(observed_joint(m), 3)
        rep_a = estimands(model)
        rep_b = estimands(model.permuted(np.array([2, 0, 1])))
        assert np.array_equal(rep_a.beta, rep_b.beta)
        assert np.array_equal(rep_a.pot_y, rep_b.pot_y)
        assert np.array_equal(rep_a.beta_cdf, rep_b.beta_cdf)
        assert rep_a.ate == rep_b.ate and rep_a.att == rep_b.att

    def test_homogeneous_effect_collapses_beta_distribution(self):
        """A Y-kernel additively shifted by X yields one effect atom."""
        K = 2
        dag = FIGURES["fig2a"]
        spaces = standard_spaces(K)
        rng = np.random.default_rng(8)
        # f(y | w, x): mean depends on x only => constant CATE across w
        from triproxy.generators import _pmfs_with_means
        y_levels = np.arange(3.0)
        means = np.repeat([0.7, 1.3], K)                    # per (x, w)
        qs = rng.dirichlet(np.ones(3), size=2 * K)
        kern = _pmfs_with_means(y_levels, means, qs).reshape(3, 2, K).transpose(0, 2, 1)
        # dag order for Y's parents
        y_parents = FIGURES["fig2a"].parents("Y")   # ("X", "W")
        kern_dag = np.transpose(kern, (0, 2, 1)) if y_parents == ("X", "W") else kern
        m = random_npsem(dag, spaces, seed=8, kernels={"Y": kern_dag})
        rep = estimands(identify_outcome_proxy(observed_joint(m), K))
        assert rep.beta_atoms.size == 1
        assert abs(rep.beta_atoms[0] - 0.6) < 1e-8
        assert abs(rep.var_beta) < 1e-8

    def test_var_beta_non_negative_for_constant_effect(self):
        from triproxy.generators import rank_invariant_bounds_model
        m = rank_invariant_bounds_model(2, seed=1, constant_cate=True)
        rep = estimands(identify_outcome_proxy(observed_joint(m), 2))
        assert rep.var_beta >= 0.0
        assert rep.var_beta < 1e-12

    def test_qte_of_shifted_outcome(self):
        """If Y(1) = Y(0) + 1 in law, every quantile effect is the shift."""
        model = _two_point_model()
        rep = estimands(model)
        assert np.all(rep.qte == 1.0)


def _two_point_model():
    """Hand-built latent model with Y(1) distributed as Y(0) shifted by 1."""
    w = VarSpace("W", 2, (0.0, 1.0))
    x = VarSpace("X", 2, (0.0, 1.0))
    y = VarSpace("Y", 3, (0.0, 1.0, 2.0))
    z = VarSpace("Z", 2, (0.0, 1.0))
    y_given_wx = np.empty((3, 2, 2))
    y_given_wx[:, 0, 0] = [0.7, 0.3, 0.0]
    y_given_wx[:, 1, 0] = [0.4, 0.6, 0.0]
    y_given_wx[:, 0, 1] = [0.0, 0.7, 0.3]
    y_given_wx[:, 1, 1] = [0.0, 0.4, 0.6]
    wx = np.array([[0.3, 0.2], [0.25, 0.25]])
    return LatentOutcomeModel(
        arm_laws=np.einsum("ywt,wx->tywx", y_given_wx, wx), y_space=y,
        wx_joint=ProbTensor.build((w, x), wx),
        z_space=z, z_given_w=np.array([[0.9, 0.2], [0.1, 0.8]]))


class TestFailureModes:
    def test_rank_deficient_proxy(self):
        """Z carrying no information about W breaks completeness."""
        K = 2
        dag = FIGURES["fig2a"]
        spaces = standard_spaces(K)
        rng = np.random.default_rng(30)
        z_pmf = rng.dirichlet(np.ones(3))
        z_kernel = np.repeat(z_pmf[:, None], K, axis=1)   # constant in w
        m = random_npsem(dag, spaces, seed=30, kernels={"Z": z_kernel})
        with pytest.raises(RankDeficient) as ei:
            identify_outcome_proxy(observed_joint(m), K)
        assert "completeness" in str(ei.value)

    def test_eigen_gap_exhausted_when_treatment_ignores_latent(self):
        """X independent of W gives identical treatment-kernel columns, so the
        treatment design cannot separate the latent states."""
        K = 2
        dag = FIGURES["fig3a"]
        spaces = standard_spaces(K)
        x_given_w = np.array([[0.6, 0.6], [0.4, 0.4]])
        m = random_npsem(dag, spaces, seed=31, kernels={"X": x_given_w})
        with pytest.raises(EigenGapExhausted) as ei:
            identify_treatment_proxy(observed_joint(m), K)
        assert DESIGNS["treatment"].distinctness in str(ei.value)

    @pytest.mark.parametrize("collapsed", ["other", "reference"])
    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("figure, signal", [("fig5a", "C"), ("fig2a", "Y")])
    def test_auxiliary_needs_distinct_signal_only_in_reference_stratum(
            self, figure, signal, seed, collapsed):
        """The signal's kernel equal across W in one treatment level: the
        auxiliary (signal C) and outcome (signal Y) designs still identify
        when that level is not the reference one, and refuse by name when
        it is."""
        K = 2
        dag, spaces = FIGURES[figure], standard_spaces(K)
        kernel = np.random.default_rng(1000 + seed).dirichlet(
            np.ones(3), size=(K, 2)).transpose(2, 0, 1)        # (|signal|, W, X)
        dag_order = [0] + [1 + ("W", "X").index(p) for p in dag.parents(signal)]
        # an injected kernel is not drawn from the seed's stream, and the
        # signal is not an ancestor of X, so f(x) does not depend on it
        joint = observed_joint(random_npsem(dag, spaces, seed,
                                            kernels={signal: kernel.transpose(dag_order)}))
        x_ref = int(np.argmax(marginalize(joint, set(joint.names) - {"X"}).values))
        level = x_ref if collapsed == "reference" else 1 - x_ref
        kernel[:, :, level] = kernel[:, :1, level]
        m = random_npsem(dag, spaces, seed, kernels={signal: kernel.transpose(dag_order)})
        identify = PIPELINES[FIGURE_DESIGNS[figure]]
        if collapsed == "reference":
            with pytest.raises(EigenGapExhausted) as ei:
                identify(observed_joint(m), K)
            assert DESIGNS[FIGURE_DESIGNS[figure]].distinctness in str(ei.value)
            return
        rep = estimands(identify(observed_joint(m), K))
        truth = effects(m)
        z = m["Z"]
        perm = canonical_order(_decoded(z.table, z.noise_pmf, z.space.cardinality))
        assert abs(rep.ate - truth["ate"]) < 1e-9
        np.testing.assert_allclose(rep.pot_y, truth["pot_y"], atol=1e-9)
        np.testing.assert_allclose(rep.beta, truth["cate"][perm], atol=1e-9)
        assert abs(rep.var_beta - (truth["cate"] - truth["ate"]) ** 2 @ truth["w"]) < 1e-9

    @pytest.mark.parametrize("figure,treated_w0", [
        *(pytest.param(f, t, id=f + suffix) for t, suffix in ((0.0, ""), (1e-9, "-1e-9"))
          for f in ("fig2a", "fig3a", "fig4a", "fig5a"))])
    def test_treatment_arm_without_mass_in_a_latent_state_is_refused(self, figure,
                                                                     treated_w0):
        """f(X = 1 | W = 0) = 0 leaves f(y | w, x = 1) unidentified in that
        state, so every design refuses rather than filling it in.  At 1e-9
        the arm law is still there, split over the V levels in the auxiliary
        design, and every design identifies it."""
        K = 2
        dag, spaces = FIGURES[figure], standard_spaces(K)
        parents = dag.parents("X")
        for seed in range(5):
            treated = np.random.default_rng(500 + seed).uniform(
                0.2, 0.8, size=tuple(spaces[p].cardinality for p in parents))
            treated[tuple(0 if p == "W" else slice(None) for p in parents)] = treated_w0
            m = random_npsem(dag, spaces, seed,
                             kernels={"X": np.stack([1 - treated, treated])})
            if treated_w0:
                rep, truth = estimands(run_pipeline(m, K)), effects(m)
                assert abs(rep.ate - truth["ate"]) < 1e-6, f"seed {seed}"
                np.testing.assert_allclose(rep.pot_y, truth["pot_y"], atol=1e-6)
                continue
            with pytest.raises(ZeroConditioningCell) as ei:
                run_pipeline(m, K)
            assert ei.value.assumption and ei.value.assumption in str(ei.value)
            assert "positivity" in str(ei.value)

    @pytest.mark.parametrize("figure", ["fig2a", "fig3a", "fig4a", "fig5a"])
    @pytest.mark.parametrize("K", [2, 3])
    def test_latent_dim_below_truth_names_assumption(self, figure, K):
        """One latent state too few is refused with a named assumption."""
        for seed in range(5):
            m = figure_model(figure, K=K, seed=seed)
            with pytest.raises(TriproxyError) as ei:
                run_pipeline(m, K - 1)
            assert ei.value.assumption, f"seed {seed}: {ei.value!r}"

    def test_ill_conditioned_proxy_kernel_refused(self):
        # two nearly equal columns of f(z | w): condition number 2e9
        z_given_w = np.array([[1.0, 1.0 - 1e-9], [0.0, 1e-9]])
        with pytest.raises(SolveIllConditioned) as ei:
            _deconvolve(z_given_w, np.full((1, 2, 1), 0.5), "latent joint")
        assert ei.value.assumption == COMPLETENESS_LABEL
        assert "condition number 2.000e+09 above 1e+08" in str(ei.value)

    def test_missing_axis(self):
        m = figure_model("fig2a", K=2, seed=1)
        joint = observed_joint(m)
        crippled = marginalize(joint, {"V"})
        with pytest.raises(UnknownAxis):
            identify_outcome_proxy(crippled, 2)

    def test_non_binary_treatment_rejected(self):
        model = _two_point_model()
        x3 = VarSpace("X", 3, (0.0, 1.0, 2.0))
        w = model.wx_joint.axes[0]
        wx = np.full((2, 3), 1 / 6)
        # every arm takes arm 0's law f(y | w)
        y_given_w = model.arm_laws[0].sum(axis=2) / model.wx_joint.values.sum(axis=1)
        laws = np.stack([np.einsum("yw,wx->ywx", y_given_w, wx)] * 3)
        bad = replace(model, arm_laws=laws, wx_joint=ProbTensor.build((w, x3), wx))
        with pytest.raises(NonBinaryTreatment):
            estimands(bad)

    def test_missing_levels(self):
        bad = replace(_two_point_model(), y_space=VarSpace("Y", 3, None))
        with pytest.raises(MissingLevels):
            estimands(bad)


def _decoded(table: np.ndarray, pmf: np.ndarray, card: int) -> np.ndarray:
    """f(v | parents) = sum_u pmf(u) 1[table[parents, u] = v], looped."""
    rows = table.reshape(-1, pmf.size)
    out = np.zeros((card, rows.shape[0]))
    for j, row in enumerate(rows):
        for u, v in enumerate(row):
            out[v, j] += pmf[u]
    return out.reshape((card,) + table.shape[:-1])


def _test_kernels(card: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    dirichlet = rng.dirichlet(np.ones(card), size=card + 1).T
    zeros = dirichlet * (rng.random(dirichlet.shape) < 0.6)
    zeros[0] += 1e-3                   # every column keeps some mass
    zeros /= zeros.sum(axis=0)
    point = np.eye(card)[:, :1]
    return {
        "separated": separated_kernel(rng, card, (card, 2), 0, grains=12),
        "separated-second-axis": separated_kernel(rng, card, (2, card), 1, grains=16),
        "dirichlet": dirichlet,
        "zeros": zeros,
        # repeated columns and a point mass share CDF breakpoints
        "tied": np.concatenate([dirichlet[:, :2], dirichlet[:, :1], point], axis=1),
    }


def _encode_with_unique(kernel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints through ``np.unique``, as :func:`encode_kernel` once did."""
    card = kernel.shape[0]
    cums = np.cumsum(kernel.reshape(card, -1), axis=0)
    cums[-1, :] = 1.0
    breaks = np.unique(cums[:-1])
    breaks = breaks[(breaks > 1e-15) & (breaks < 1.0 - 1e-15)]
    edges = np.concatenate([[0.0], breaks, [1.0]])
    mids = (edges[:-1] + edges[1:]) / 2.0
    table = np.array([np.searchsorted(c, mids, side="left") for c in cums.T])
    return table.reshape(kernel.shape[1:] + (mids.size,)), np.diff(edges)


class TestKernelEncoding:
    @pytest.mark.parametrize("card", range(2, 7))
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_unique_based_reference(self, card, seed):
        kernels = _test_kernels(card, seed)
        rng = np.random.default_rng(seed)
        # CDF values within 1e-15 of 0 (a tiny head) and of 1 (a tiny last entry)
        edge = rng.dirichlet(np.ones(card), size=3).T
        edge[0, 0], edge[-1, 1] = 1e-16, 1e-16
        kernels["edge"] = edge / edge.sum(axis=0)
        for name, kernel in kernels.items():
            table, pmf = encode_kernel(kernel)
            want_table, want_pmf = _encode_with_unique(kernel)
            assert pmf.tobytes() == want_pmf.tobytes(), name
            assert np.array_equal(table, want_table), name

    @pytest.mark.parametrize("card", range(2, 7))
    @pytest.mark.parametrize("seed", range(3))
    def test_round_trip(self, card, seed):
        for name, kernel in _test_kernels(card, seed).items():
            table, pmf = encode_kernel(kernel)
            assert table.shape == kernel.shape[1:] + (pmf.size,), name
            assert table.min() >= 0 and table.max() < card, name
            assert pmf.min() > 0 and abs(pmf.sum() - 1.0) <= 1e-15, name
            gap = np.abs(_decoded(table, pmf, card) - kernel).max()
            assert gap <= 1e-15, (name, gap)

    def test_rejects_non_pmf_columns(self):
        from triproxy.errors import InvalidDistribution
        with pytest.raises(InvalidDistribution):
            encode_kernel(np.array([[0.5, 1.2], [0.5, -0.2]]))
        with pytest.raises(InvalidDistribution):
            encode_kernel(np.array([[0.5, 0.5], [0.4, 0.5]]))


def _left_quantile(levels: np.ndarray, pmf: np.ndarray, tau: float) -> float:
    """One arm's left quantile at one tau, as :func:`estimands` once
    searched it."""
    cdf = np.cumsum(pmf)
    idx = int(np.searchsorted(cdf, tau - 1e-12, side="left"))
    return float(levels[min(idx, levels.size - 1)])


class TestStackedEqualsTensorOps:
    """The array code in :mod:`triproxy.pipelines` against the tensor
    operations and per-tau loops it replaced, byte for byte."""

    @pytest.mark.parametrize("figure", ["fig2a", "fig3a", "fig4a", "fig5a"])
    def test_qte_matches_the_per_tau_search(self, figure):
        model = run_pipeline(figure_model(figure, K=2, seed=1), 2)
        y = np.arange(3.0)
        rep = estimands(model)
        want = np.array([_left_quantile(y, rep.pot_y[:, 1], t)
                         - _left_quantile(y, rep.pot_y[:, 0], t) for t in QTE_TAUS])
        assert rep.qte.tobytes() == want.tobytes()
        # taus on, just inside and just outside 1e-12 of every CDF value
        cdf = np.cumsum(rep.pot_y, axis=0).ravel()
        taus = tuple(float(c + d) for c in cdf
                     for d in (-2e-12, -1e-12, -5e-13, 0.0, 5e-13, 1e-12, 2e-12))
        taus += (0.0, 0.5, 1.0, 1.5)
        for x in (0, 1):
            got = y[_left_quantile_index(rep.pot_y[:, x], taus)]
            want = np.array([_left_quantile(y, rep.pot_y[:, x], t) for t in taus])
            assert got.tobytes() == want.tobytes()
        assert _left_quantile_index(rep.pot_y[:, 0], ()).shape == (0,)

    def test_slice_joint_matches_restrict_marginalize_reorder(self):
        joint = observed_joint(figure_model("fig5a", K=3, seed=0))
        for fix in ({}, {"X": 1}, {"X": 0, "Y": 2}, {"Z": 3, "C": 0}):
            free = [n for n in joint.names if n not in fix]
            for axes in (tuple(free), tuple(reversed(free)), tuple(free[1:3]),
                         (free[-1],)):
                t = restrict(joint, fix)
                want = marginalize(t, set(t.names) - set(axes)).reorder(axes).values
                got = _slice_joint(joint, axes, fix)
                assert got.tobytes() == want.tobytes(), (fix, axes)
                assert got.strides == want.strides, (fix, axes)

    def test_slice_joint_refuses_an_empty_stratum(self):
        x, z = VarSpace("X", 2), VarSpace("Z", 2)
        joint = ProbTensor.build((x, z), [[0.5, 0.5], [0.0, 0.0]])
        with pytest.raises(ZeroConditioningCell):
            _slice_joint(joint, ("Z",), {"X": 1})
