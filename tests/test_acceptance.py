"""Acceptance gate: seven primary criteria, each printing one PASS/FAIL line.

Every criterion is checked against an independent oracle (forward
construction, exact counterfactual enumeration, or a clamp intervention)
at the pinned tolerance, with wall-clock budgets where stated.
"""

import functools
import json
import sys
import time

import numpy as np
import pytest

from conftest import (PROPOSITION5_GIVEN_V, PROPOSITION5_UNCONDITIONAL,
                      PROPOSITION_FIGURES, assert_cdf_match, clamp_xw_mean,
                      oracle_clamp_xw_mean)
from triproxy.bounds import bounds_auxiliary_proxy, bounds_outcome_proxy
from triproxy.cli import main as cli_main
from triproxy.errors import (EigenGapExhausted, RankDeficient,
                             ZeroConditioningCell)
from triproxy.generators import (FIGURE_DESIGNS, PIPELINE_FIGURES,
                                 figure_model, rank_invariant_bounds_model,
                                 unbiased_proxy_model)
from triproxy.graphs import (DESIGNS, FIGURES, PROPOSITIONS, check_proposition,
                             classify_designs)
from triproxy.pipelines import (estimands, identify_auxiliary_proxy,
                                identify_cond_treatment_proxy,
                                identify_outcome_proxy,
                                identify_treatment_proxy)
from triproxy.prob import marginalize
from triproxy.relabel import RelabelRule, relabel_monotone, relabel_unbiased
from triproxy.scm import (arm_label, check_conclusion, counterfactual_joint, effects,
                          observed_joint)
from triproxy.spectral import HsOptions, hs_decompose, match_permutation

PIPELINES = {
    "outcome": identify_outcome_proxy,
    "treatment": identify_treatment_proxy,
    "cond-treatment": identify_cond_treatment_proxy,
    "auxiliary": identify_auxiliary_proxy,
}


def criterion(n: int, desc: str):
    """Emit one unconditional PASS/FAIL line per criterion on the terminal."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapped(*a, **kw):
            import conftest

            def emit(status):
                line = f"[criterion {n}] {status}  {desc}"
                conftest.ACCEPTANCE_LINES.append(line)
                print(line, file=sys.__stdout__, flush=True)

            try:
                fn(*a, **kw)
            except BaseException:
                emit("FAIL")
                raise
            emit("PASS")
        return wrapped
    return deco


# ---------------------------------------------------------------------------
# 1. spectral round trip


def _gapped_factors(rng, nz, nc, nv, k):
    """Column-stochastic factors with eigen-gap >= 0.05 by construction: the
    signal proxy's columns are spread along the first level."""
    z = 0.25 * rng.dirichlet(np.ones(nz), size=k).T + 0.75 * np.eye(nz)[:, :k]
    first = np.linspace(0.06, 0.94, k)
    c = np.empty((nc, k))
    for j in range(k):
        c[0, j] = first[j]
        c[1:, j] = (1.0 - first[j]) * (rng.dirichlet(np.ones(nc - 1))
                                       if nc > 1 else 1.0)
    w_given_v = (0.25 * rng.dirichlet(np.ones(k), size=nv)
                 + 0.75 * np.eye(nv, k)[:, :k][: nv]).T
    w_given_v /= w_given_v.sum(axis=0)
    v = rng.dirichlet(np.ones(nv) * 5.0)
    gap = min(np.abs(c[:, i] - c[:, j]).max()
              for i in range(k) for j in range(i + 1, k))
    assert gap >= 0.05
    return z, c, w_given_v, v


@criterion(1, "spectral round trip: 50 factor triples recovered to 1e-7 in <5s")
def test_criterion_1_spectral_round_trip():
    start = time.perf_counter()
    for seed in range(50):
        rng = np.random.default_rng(seed)
        k = 2 + seed % 5                                   # K in {2,...,6}
        nz = k + int(rng.integers(0, 5))                   # |Z| in {K,...,K+4}
        nv = k + int(rng.integers(0, 5))
        nc = int(rng.integers(2, 6))                       # |C| in {2,...,5}
        z, c, w_given_v, v = _gapped_factors(rng, nz, nc, nv, k)
        f = np.einsum("zw,cw,wv,v->zcv", z, c, w_given_v, v)
        fac = hs_decompose(f, HsOptions(latent_dim=k))
        perm = match_permutation(z, fac.z_given_w)         # one common relabeling
        assert np.abs(fac.z_given_w[:, perm] - z).max() <= 1e-7
        assert np.abs(fac.c_given_w[:, perm] - c).max() <= 1e-7
        assert np.abs(fac.w_given_v[perm] - w_given_v).max() <= 1e-7
        assert np.abs(fac.v_marginal - v).max() <= 1e-7
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# 2. pipelines against the exact enumeration oracle


@criterion(2, "pipeline vs oracle: 11 figures x 30 seeds x K in {2,3} at 1e-6 in <60s")
def test_criterion_2_pipelines_vs_oracle():
    start = time.perf_counter()
    for figure in PIPELINE_FIGURES:
        pipeline = PIPELINES[FIGURE_DESIGNS[figure]]
        for K in (2, 3):
            for seed in range(30):
                m = figure_model(figure, K=K, seed=2000 + seed)
                rep = estimands(pipeline(observed_joint(m), K))
                truth = effects(m)
                assert abs(rep.ate - truth["ate"]) <= 1e-6
                assert abs(rep.att - truth["att"]) <= 1e-6
                np.testing.assert_allclose(rep.pot_y, truth["pot_y"], atol=1e-6)
                assert_cdf_match(rep.beta_atoms, rep.beta_cdf,
                                 truth["beta_atoms"], truth["beta_cdf"], 1e-6)
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 3. proposition battery

@criterion(3, "proposition battery: d-separation certificates exact; "
              "every conclusion confirmed exactly on 30 seeds per graph")
def test_criterion_3_proposition_battery():
    # observational conclusions certify on exactly the intended graphs
    for prop, figures in PROPOSITION_FIGURES.items():
        for figure in figures:
            assert check_proposition(FIGURES[figure], prop).all_observational_certified
    assert not check_proposition(FIGURES["fig1b"], 1).all_observational_certified
    assert not classify_designs(FIGURES["fig1b"]) & {
        "outcome", "treatment", "cond-treatment", "auxiliary"}
    assert "double-proxy" not in classify_designs(FIGURES["fig1c"])
    assert "double-proxy" in classify_designs(FIGURES["fig1b"])

    # every conclusion of a figure's propositions holds on its exact joints;
    # Proposition 5's two conclusions each apply to their own figures
    i, ii = PROPOSITIONS[5]
    conclusions: dict[str, list] = {}
    for prop, figures in PROPOSITION_FIGURES.items():
        for figure in figures:
            if prop != 5:
                conclusions.setdefault(figure, []).extend(PROPOSITIONS[prop])
    for figure in PROPOSITION5_UNCONDITIONAL:
        conclusions[figure].append(i)
    for figure in PROPOSITION5_GIVEN_V:
        conclusions[figure].append(ii)
    for figure, needed in sorted(conclusions.items()):
        for seed in range(30):
            m = figure_model(figure, K=2, seed=3000 + seed)
            for c in needed:
                assert check_conclusion(m, c), (figure, seed, str(c))


# ---------------------------------------------------------------------------
# 4. relabeling against oracles


@criterion(4, "relabeling: unbiased / monotone stratum effects and "
              "confounder effects match oracles at 1e-6")
def test_criterion_4_relabeling():
    rule = RelabelRule("mean", "unbiased")
    for K in (2, 3):
        for seed in range(10):
            m = unbiased_proxy_model(K, seed=4000 + seed)
            model = identify_outcome_proxy(observed_joint(m), K)
            labeled = relabel_unbiased(model, rule)
            truth = effects(m)["cate"]
            for w in range(K):
                assert abs(labeled.beta_at_value(float(w)) - truth[w]) <= 1e-6

    # monotone garbling: quantile-addressed effects match the true states
    garbling = (0.0, 0.55, 1.9)
    for seed in range(5):
        m = unbiased_proxy_model(3, seed=4100 + seed, monotone_map=garbling)
        labeled = relabel_monotone(identify_outcome_proxy(observed_joint(m), 3),
                                   RelabelRule("mean", "monotone"))
        truth = effects(m)
        cdf = np.cumsum(truth["w"])
        for tau in (0.25, 0.5, 0.75):
            state = int(np.searchsorted(cdf, tau - 1e-12, side="left"))
            assert abs(labeled.beta_at_quantile(tau) - truth["cate"][state]) <= 1e-6

    # confounder effects E[Y(x, w)] vs the clamp-both oracle
    for figure, design, pipeline in (("fig2a", "outcome", identify_outcome_proxy),
                                     ("fig5a", "auxiliary", identify_auxiliary_proxy)):
        for seed in range(3):
            m = unbiased_proxy_model(2, seed=4200 + seed, figure=figure)
            labeled = relabel_unbiased(pipeline(observed_joint(m), 2), rule)
            for w in range(2):
                for x1 in (0, 1):
                    got = clamp_xw_mean(labeled.base, x1, w)
                    assert abs(got - oracle_clamp_xw_mean(m, x1, w)) <= 1e-6


# ---------------------------------------------------------------------------
# 5. bounds coverage


def _oracle_cate_by_v(m):
    joint = counterfactual_joint(m, ("X",), outcome="Y", keep=("V",))
    y = m["Y"].space.level_values()

    def mean_by_v(arm):
        t = marginalize(joint, set(joint.names) - {arm, "V"}).reorder((arm, "V"))
        return (y @ t.values) / t.values.sum(axis=0)

    a0, a1 = (arm_label("Y", (x,)) for x in (0, 1))
    return mean_by_v(a1) - mean_by_v(a0)


@criterion(5, "bounds: intervals cover oracle ATT/ATU and stratum effects on "
              "30 seeds per design; constant-effect width <= 1e-7")
def test_criterion_5_bounds():
    for seed in range(30):
        m = rank_invariant_bounds_model(2, seed=5000 + seed, figure="fig6a")
        rep = bounds_outcome_proxy(observed_joint(m), 2)
        truth = effects(m)
        lo, hi = rep.s_lower - 1e-7, rep.s_upper + 1e-7
        for val in (truth["att"], truth["atu"], *truth["cate"]):
            assert lo <= val <= hi

    for seed in range(30):
        m = rank_invariant_bounds_model(2, seed=5100 + seed, figure="fig7a")
        rep = bounds_auxiliary_proxy(observed_joint(m), 2)
        truth = effects(m)
        assert rep.att_interval[0] - 1e-7 <= truth["att"] <= rep.att_interval[1] + 1e-7
        assert rep.atu_interval[0] - 1e-7 <= truth["atu"] <= rep.atu_interval[1] + 1e-7
        cate_v = _oracle_cate_by_v(m)
        assert np.all(rep.per_v_lower - 1e-7 <= cate_v)
        assert np.all(cate_v <= rep.per_v_upper + 1e-7)

    for seed in range(5):
        m = rank_invariant_bounds_model(2, seed=5200 + seed, figure="fig6a",
                                        constant_cate=True)
        rep = bounds_outcome_proxy(observed_joint(m), 2)
        assert rep.point_identified
        assert rep.s_upper - rep.s_lower <= 1e-7


# ---------------------------------------------------------------------------
# 6. invariances


@criterion(6, "invariance: bit-identical reports under latent permutation, "
              "mass conservation at 1e-10, byte-identical CLI reports")
def test_criterion_6_invariances(tmp_path, capsys):
    # latent-permutation invariance of the effect report
    for figure, pipeline in (("fig2a", identify_outcome_proxy),
                             ("fig5a", identify_auxiliary_proxy)):
        m = figure_model(figure, K=3, seed=6000)
        model = pipeline(observed_joint(m), 3)
        rep_a = estimands(model)
        rep_b = estimands(model.permuted(np.array([2, 0, 1])))
        assert np.array_equal(rep_a.beta, rep_b.beta)
        assert np.array_equal(rep_a.pot_y, rep_b.pot_y)
        assert np.array_equal(rep_a.beta_cdf, rep_b.beta_cdf)
        assert rep_a.ate == rep_b.ate and rep_a.att == rep_b.att

    # mass conservation through tensor operations
    m = figure_model("fig2a", K=2, seed=6001)
    joint = observed_joint(m)
    assert abs(joint.values.sum() - 1.0) <= 1e-10
    for name in joint.names:
        rest = marginalize(joint, {name})
        assert abs(rest.values.sum() - 1.0) <= 1e-10
    assert abs(joint.reorder(tuple(reversed(joint.names))).values.sum() - 1.0) <= 1e-10

    # CLI byte determinism
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(m.to_dict()))
    joint_path = tmp_path / "joint.json"
    joint_path.write_text(json.dumps(joint.to_dict()))
    reports = []
    for stem in ("r1", "r2"):
        out = tmp_path / f"{stem}.json"
        code = cli_main(["identify", "--design", "outcome", "--latent-dim",
                         "2", "--joint", str(joint_path), "--report", str(out)])
        assert code == 0
        reports.append(out.read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# 7. failure modes carry assumption names


@criterion(7, "failure modes: rank deficiency, eigen-gap exhaustion and "
              "zero-mass strata raise errors naming the violated assumption")
def test_criterion_7_failure_modes():
    from triproxy.generators import random_npsem, standard_spaces

    # rank-deficient f(Z | W): the proxy carries no signal about the state
    rng = np.random.default_rng(70)
    z_kernel = np.repeat(rng.dirichlet(np.ones(3))[:, None], 2, axis=1)
    m = random_npsem(FIGURES["fig2a"], standard_spaces(2), seed=70, kernels={"Z": z_kernel})
    with pytest.raises(RankDeficient) as ei:
        identify_outcome_proxy(observed_joint(m), 2)
    assert ei.value.assumption and "completeness" in str(ei.value)

    # duplicate signal columns: indistinguishable latent states
    rng = np.random.default_rng(71)
    z, _, w_given_v, v = _gapped_factors(rng, 4, 3, 4, 2)
    c = np.repeat(rng.dirichlet(np.ones(3))[:, None], 2, axis=1)
    f = np.einsum("zw,cw,wv,v->zcv", z, c, w_given_v, v)
    with pytest.raises(EigenGapExhausted) as ei:
        hs_decompose(f, HsOptions(latent_dim=2))
    assert ei.value.assumption and "Assumption 4" in str(ei.value)

    # the treatment design names its own distinctness assumption
    x_given_w = np.array([[0.6, 0.6], [0.4, 0.4]])
    m = random_npsem(FIGURES["fig3a"], standard_spaces(2), seed=72,
                     kernels={"X": x_given_w})
    with pytest.raises(EigenGapExhausted) as ei:
        identify_treatment_proxy(observed_joint(m), 2)
    assert DESIGNS["treatment"].distinctness in str(ei.value)

    # zero-probability stratum
    rng = np.random.default_rng(73)
    z, c, w_given_v, v = _gapped_factors(rng, 4, 3, 4, 2)
    v = v.copy()
    v[0] = 0.0
    f = np.einsum("zw,cw,wv,v->zcv", z, c, w_given_v, v / v.sum())
    with pytest.raises(ZeroConditioningCell) as ei:
        hs_decompose(f, HsOptions(latent_dim=2))
    assert ei.value.assumption and ei.value.assumption in str(ei.value)
