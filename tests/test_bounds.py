"""Rank-invariance bounds: exact coverage against the oracle, collapse to
points, per-v intervals, and the oracle-side rank-invariance check."""

import numpy as np
import pytest

from conftest import check_rank_invariance
from triproxy.bounds import BoundsReport, bounds_auxiliary_proxy, bounds_outcome_proxy
from triproxy.errors import (MissingLevels, NonBinaryTreatment, TriproxyError,
                             ZeroConditioningCell)
from triproxy.generators import rank_invariant_bounds_model
from triproxy.prob import ProbTensor, VarSpace, marginalize
from triproxy.scm import effects, observed_joint


@pytest.mark.parametrize("figure", ["fig6a", "fig6b", "fig6c", "fig7a", "fig7b"])
@pytest.mark.parametrize("K", [2, 3])
@pytest.mark.parametrize("seed", range(5))
def test_interval_covers_all_oracle_effects(figure, K, seed):
    """At the true latent dimension the intervals cover the oracle; one
    state fewer, and an arm's joint does not factor: it is refused."""
    auxiliary = figure.startswith("fig7")
    bounds = bounds_auxiliary_proxy if auxiliary else bounds_outcome_proxy
    m = rank_invariant_bounds_model(K, seed=seed, figure=figure)
    assert check_rank_invariance(m, given="V" if auxiliary else None)  # the premise
    joint = observed_joint(m)
    rep = bounds(joint, K)
    truth = effects(m)
    checks = [(rep.att_interval, truth["att"]), (rep.atu_interval, truth["atu"])]
    if not auxiliary:            # fig7's s interval is a V-average, not a CATE bound
        checks += [((rep.s_lower, rep.s_upper), c) for c in truth["cate"]]
    for (lo, hi), val in checks:
        assert lo - 1e-7 <= val <= hi + 1e-7
    with pytest.raises(TriproxyError) as ei:
        bounds(joint, K - 1)
    assert ei.value.assumption


class TestOutcomeBounds:
    def test_designed_cate_values_recovered_exactly(self):
        m = rank_invariant_bounds_model(2, seed=1, figure="fig6a",
                                        cate_values=(0.1, 0.3))
        rep = bounds_outcome_proxy(observed_joint(m), 2)
        assert abs(rep.s_lower - 0.1) < 1e-7
        assert abs(rep.s_upper - 0.3) < 1e-7
        assert not rep.point_identified

    def test_constant_cate_collapses_to_point(self):
        m = rank_invariant_bounds_model(3, seed=2, figure="fig6a",
                                        constant_cate=True)
        rep = bounds_outcome_proxy(observed_joint(m), 3)
        assert rep.point_identified
        assert rep.s_upper - rep.s_lower <= 1e-7
        truth = effects(m)["cate"]
        assert abs(rep.s_lower - truth[0]) < 1e-7

    def test_zero_effect_gives_zero_interval(self):
        m = rank_invariant_bounds_model(2, seed=3, figure="fig6a",
                                        cate_values=(0.2, 0.2))
        rep = bounds_outcome_proxy(observed_joint(m), 2)
        assert rep.point_identified
        assert abs(rep.s_lower - 0.2) < 1e-7


class TestAuxiliaryBounds:
    def test_per_v_intervals_cover_per_v_oracle(self):
        K = 2
        m = rank_invariant_bounds_model(K, seed=4, figure="fig7a")
        rep = bounds_auxiliary_proxy(observed_joint(m), K)
        truth = effects(m)
        assert rep.att_interval[0] - 1e-7 <= truth["att"] <= rep.att_interval[1] + 1e-7
        assert rep.atu_interval[0] - 1e-7 <= truth["atu"] <= rep.atu_interval[1] + 1e-7
        assert rep.per_v_lower is not None and rep.per_v_upper is not None
        assert np.all(rep.per_v_lower <= rep.per_v_upper + 1e-12)

    def test_global_interval_is_v_average(self):
        m = rank_invariant_bounds_model(2, seed=5, figure="fig7a")
        joint = observed_joint(m)
        rep = bounds_auxiliary_proxy(joint, 2)
        f_v = marginalize(joint, set(joint.names) - {"V"}).values
        np.testing.assert_allclose(rep.s_lower, rep.per_v_lower @ f_v, atol=1e-12)
        np.testing.assert_allclose(rep.s_upper, rep.per_v_upper @ f_v, atol=1e-12)

    def test_degenerate_v_cell_rejected(self):
        m = rank_invariant_bounds_model(2, seed=5, figure="fig7a")
        joint = observed_joint(m)
        # kill one (V, X) cell
        idx_v, idx_x = joint.axis_index("V"), joint.axis_index("X")
        vals = np.array(joint.values)
        sl = [slice(None)] * vals.ndim
        sl[idx_v], sl[idx_x] = 0, 0
        vals[tuple(sl)] = 0.0
        crippled = ProbTensor.build(joint.axes, vals / vals.sum())
        with pytest.raises(ZeroConditioningCell):
            bounds_auxiliary_proxy(crippled, 2)


class TestGuards:
    def test_non_binary_treatment(self):
        m = rank_invariant_bounds_model(2, seed=6)
        joint = observed_joint(m)
        # relabel X's axis to a 3-level variable with an empty last level
        axes = []
        for a in joint.axes:
            axes.append(VarSpace("X", 3, (0.0, 1.0, 2.0)) if a.name == "X" else a)
        vals = np.zeros([a.cardinality for a in axes])
        sl = [slice(None)] * vals.ndim
        sl[joint.axis_index("X")] = slice(0, 2)
        vals[tuple(sl)] = joint.reorder(tuple(a.name for a in joint.axes)).values
        with pytest.raises(NonBinaryTreatment):
            bounds_outcome_proxy(ProbTensor.build(tuple(axes), vals), 2)

    def test_missing_levels(self):
        m = rank_invariant_bounds_model(2, seed=6)
        joint = observed_joint(m)
        axes = tuple(VarSpace("Y", a.cardinality, None) if a.name == "Y" else a
                     for a in joint.axes)
        with pytest.raises(MissingLevels):
            bounds_outcome_proxy(ProbTensor.build(axes, joint.values), 2)


class TestRankInvarianceCheck:
    def test_monotone_construction_passes(self):
        m = rank_invariant_bounds_model(3, seed=7, figure="fig6a")
        assert check_rank_invariance(m)

    def test_violation_detected(self):
        # base means increase with w but the effect decreases: not monotone
        m = rank_invariant_bounds_model(2, seed=8, figure="fig6a",
                                        cate_values=(0.4, 0.1))
        assert not check_rank_invariance(m)

    def test_constant_effect_passes(self):
        m = rank_invariant_bounds_model(2, seed=9, figure="fig6a",
                                        constant_cate=True)
        assert check_rank_invariance(m)

    def test_per_v_variant(self):
        m = rank_invariant_bounds_model(2, seed=10, figure="fig7a")
        assert check_rank_invariance(m, given="V")
