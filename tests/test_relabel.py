"""Latent relabeling: alpha recovery, unbiased and monotone rules,
confounder effects against the double-intervention oracle."""

import numpy as np
import pytest

from conftest import clamp_xw_mean, oracle_clamp_xw_mean
from triproxy.errors import AlphaCollision, MissingLevels, TauOutOfRange
from triproxy.generators import unbiased_proxy_model
from triproxy.pipelines import (identify_auxiliary_proxy, identify_outcome_proxy,
                                potential_joint)
from triproxy.prob import VarSpace
from triproxy.relabel import (RelabelRule, compute_alpha, relabel_monotone,
                              relabel_unbiased)
from triproxy.scm import effects, observed_joint


def identified(m, K, design="outcome"):
    fn = identify_auxiliary_proxy if design == "auxiliary" else identify_outcome_proxy
    return fn(observed_joint(m), K)


class TestAlpha:
    def test_mean_alpha_matches_hand_computation(self):
        z = VarSpace("Z", 3, (0.0, 1.0, 2.0))
        cols = np.array([[0.5, 0.1], [0.3, 0.2], [0.2, 0.7]])
        alpha = compute_alpha(z, cols, RelabelRule("mean", "unbiased"))
        np.testing.assert_allclose(alpha, [0.7, 1.6])

    def test_median_alpha(self):
        z = VarSpace("Z", 3, (0.0, 1.0, 2.0))
        cols = np.array([[0.6, 0.1], [0.3, 0.2], [0.1, 0.7]])
        alpha = compute_alpha(z, cols, RelabelRule("median", "unbiased"))
        np.testing.assert_allclose(alpha, [0.0, 2.0])

    def test_collision_detected(self):
        z = VarSpace("Z", 2, (0.0, 1.0))
        cols = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(AlphaCollision):
            compute_alpha(z, cols, RelabelRule("mean", "unbiased"))

    def test_missing_levels(self):
        z = VarSpace("Z", 2, None)
        cols = np.array([[0.9, 0.2], [0.1, 0.8]])
        with pytest.raises(MissingLevels):
            compute_alpha(z, cols, RelabelRule("mean", "unbiased"))


class TestUnbiased:
    @pytest.mark.parametrize("K", [2, 3])
    def test_labels_are_true_states(self, K):
        m = unbiased_proxy_model(K, seed=2)
        labeled = relabel_unbiased(identified(m, K), RelabelRule("mean", "unbiased"))
        np.testing.assert_allclose(labeled.alpha, np.arange(K), atol=1e-7)
        # the latent states are sorted by their labels
        assert (np.diff(labeled.alpha) > 0).all()

    @pytest.mark.parametrize("K", [2, 3])
    def test_per_state_effects_match_oracle(self, K):
        m = unbiased_proxy_model(K, seed=4)
        labeled = relabel_unbiased(identified(m, K), RelabelRule("mean", "unbiased"))
        truth = effects(m)
        for w in range(K):
            assert abs(labeled.beta_at_value(float(w)) - truth["cate"][w]) < 1e-7
        np.testing.assert_allclose(labeled.w_marginal, truth["w"],
                                   atol=1e-7)

    def test_auxiliary_per_state_effects_match_oracle(self):
        """Per-state effects of the auxiliary design integrate V under
        f(v | w), not f(v | w, x)."""
        for seed in range(10):
            m = unbiased_proxy_model(2, seed=seed, figure="fig5a")
            labeled = relabel_unbiased(identified(m, 2, design="auxiliary"),
                                       RelabelRule("mean", "unbiased"))
            truth = effects(m)["cate"]
            for w in range(2):
                assert abs(labeled.beta_at_value(float(w)) - truth[w]) < 1e-7

    def test_idempotent(self):
        m = unbiased_proxy_model(2, seed=5)
        rule = RelabelRule("mean", "unbiased")
        once = relabel_unbiased(identified(m, 2), rule)
        twice = relabel_unbiased(once.base, rule)
        np.testing.assert_array_equal(once.alpha, twice.alpha)
        np.testing.assert_array_equal(once.base.wx_joint.values,
                                      twice.base.wx_joint.values)

    @pytest.mark.parametrize("monotone_map", [None, (0.0, 0.4, 2.1)])
    @pytest.mark.parametrize("seed", range(6))
    def test_labels_live_in_alpha_alone(self, seed, monotone_map):
        """Relabeling reorders the latent states and moves no label onto the
        latent axis, so reordering the labeled model cannot put a label on
        another state: its canonical form and potential-outcome joints are
        the identified model's, axes included, and alpha[i] is the proxy
        location of its state i."""
        rule = RelabelRule("mean", "unbiased")
        model = identified(unbiased_proxy_model(3, seed, monotone_map=monotone_map), 3)
        labeled = relabel_unbiased(model, rule)
        np.testing.assert_allclose(compute_alpha(labeled.base.z_space, labeled.base.z_given_w,
                                                 rule),
                                   labeled.alpha, rtol=0, atol=1e-12)
        for x in (0, 1):
            got, want = potential_joint(labeled.base, x), potential_joint(model, x)
            assert got.axes == want.axes
            np.testing.assert_array_equal(got.values, want.values)
        got, want = labeled.base.canonicalized(), model.canonicalized()
        assert got.wx_joint.axes == want.wx_joint.axes
        assert got.z_space == want.z_space
        np.testing.assert_array_equal(got.z_given_w, want.z_given_w)

    def test_unknown_value_rejected(self):
        m = unbiased_proxy_model(2, seed=5)
        labeled = relabel_unbiased(identified(m, 2), RelabelRule("mean", "unbiased"))
        with pytest.raises(AlphaCollision):
            labeled.beta_at_value(7.5)


class TestMonotone:
    def test_quantile_addressing_matches_truth(self):
        """A strictly increasing garbling preserves quantile ranks: the state
        at rank tau of the recovered law is the true state at rank tau."""
        K = 3
        m = unbiased_proxy_model(K, seed=6, monotone_map=(0.0, 0.4, 2.1))
        labeled = relabel_monotone(identified(m, K), RelabelRule("mean", "monotone"))
        truth = effects(m)
        truth_cate = truth["cate"]
        cdf = np.cumsum(truth["w"])
        for tau in (0.1, 0.4, 0.6, 0.9):
            true_state = int(np.searchsorted(cdf, tau - 1e-12, side="left"))
            assert abs(labeled.beta_at_quantile(tau) - truth_cate[true_state]) < 1e-7

    def test_decreasing_garbling_reverses_order(self):
        """A decreasing map is indistinguishable from an increasing one, so
        quantile addressing comes out order-reversed."""
        K = 2
        m = unbiased_proxy_model(K, seed=7, monotone_map=(1.5, -0.5))
        labeled = relabel_monotone(identified(m, K), RelabelRule("mean", "monotone"))
        truth = effects(m)
        truth_cate = truth["cate"]
        cdf = np.cumsum(truth["w"][::-1])
        for tau in (0.2, 0.8):
            rev_state = int(np.searchsorted(cdf, tau - 1e-12, side="left"))
            assert abs(labeled.beta_at_quantile(tau)
                       - truth_cate[::-1][rev_state]) < 1e-7

    def test_tau_out_of_range(self):
        m = unbiased_proxy_model(2, seed=8)
        labeled = relabel_monotone(identified(m, 2), RelabelRule("mean", "monotone"))
        with pytest.raises(TauOutOfRange):
            labeled.state_at(0.0)
        with pytest.raises(TauOutOfRange):
            labeled.state_at(1.2)

    def test_mode_mismatch_rejected(self):
        m = unbiased_proxy_model(2, seed=8)
        with pytest.raises(ValueError):
            relabel_monotone(identified(m, 2), RelabelRule("mean", "unbiased"))
        with pytest.raises(ValueError):
            relabel_unbiased(identified(m, 2), RelabelRule("mean", "monotone"))

    @pytest.mark.parametrize("functional,mode,message", [
        ("mode", "unbiased", "unknown functional 'mode'"),
        ("mean", "x", "unknown mode 'x'")])
    def test_unknown_rule_rejected(self, functional, mode, message):
        with pytest.raises(ValueError, match=message):
            RelabelRule(functional, mode)


class TestConfounderEffects:
    @pytest.mark.parametrize("K", [2, 3])
    def test_outcome_design_matches_clamp_oracle(self, K):
        """E[Y(x, w)] from the identified model equals the oracle that clamps
        both the treatment and the latent state."""
        m = unbiased_proxy_model(K, seed=9)
        labeled = relabel_unbiased(identified(m, K), RelabelRule("mean", "unbiased"))
        for w in range(K):
            for x1 in (0, 1):
                got = clamp_xw_mean(labeled.base, x1, w)
                assert abs(got - oracle_clamp_xw_mean(m, x1, w)) < 1e-7

    def test_auxiliary_design_matches_clamp_oracle(self):
        K = 2
        m = unbiased_proxy_model(K, seed=10, figure="fig5a")
        model = identified(m, K, design="auxiliary")
        labeled = relabel_unbiased(model, RelabelRule("mean", "unbiased"))
        for w in range(K):
            for x1 in (0, 1):
                got = clamp_xw_mean(labeled.base, x1, w)
                assert abs(got - oracle_clamp_xw_mean(m, x1, w)) < 1e-7
