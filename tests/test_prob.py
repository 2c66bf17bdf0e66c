"""Tensor algebra: construction, marginalization, restriction, serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triproxy.errors import (InvalidDistribution, UnknownAxis,
                             ZeroConditioningCell)
from triproxy.prob import (MASS_TOL, MarkovKernel, ProbTensor, VarSpace,
                           marginalize, restrict)

A = VarSpace("A", 2, (0.0, 1.0))
B = VarSpace("B", 3, (0.0, 1.0, 2.0))
C = VarSpace("C", 2)


def uniform(*axes):
    shape = tuple(a.cardinality for a in axes)
    return ProbTensor.build(axes, np.full(shape, 1.0 / np.prod(shape)))


def random_tensor(rng, *axes):
    shape = tuple(a.cardinality for a in axes)
    vals = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
    return ProbTensor.build(axes, vals)


class TestConstruction:
    def test_mass_must_be_one(self):
        with pytest.raises(InvalidDistribution):
            ProbTensor.build((A,), np.array([0.4, 0.4]))

    def test_benign_negative_roundoff_clipped(self):
        t = ProbTensor.build((A,), np.array([1.0 + 1e-14, -1e-14]))
        assert t.values[1] == 0.0
        assert abs(t.values.sum() - 1.0) <= MASS_TOL

    def test_genuinely_negative_rejected(self):
        with pytest.raises(InvalidDistribution):
            ProbTensor.build((A,), np.array([1.2, -0.2]))

    def test_duplicate_axis_names_rejected(self):
        with pytest.raises(InvalidDistribution):
            ProbTensor.build((A, A), np.full((2, 2), 0.25))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidDistribution):
            ProbTensor.build((A, B), np.full((2, 2), 0.25))

    def test_values_immutable(self):
        t = uniform(A, B)
        with pytest.raises(ValueError):
            t.values[0, 0] = 0.5

    def test_kernel_slices_must_be_stochastic(self):
        with pytest.raises(InvalidDistribution):
            MarkovKernel.build(A, (B,), np.array([[0.5, 0.5, 0.5],
                                                  [0.4, 0.5, 0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidDistribution):
            ProbTensor.build((A,), np.array([bad, 1.0]))
        with pytest.raises(InvalidDistribution):
            MarkovKernel.build(A, (C,), np.array([[bad, 0.5], [0.5, 0.5]]))

    def test_varspace_levels_length_checked(self):
        with pytest.raises(InvalidDistribution):
            VarSpace("A", 3, (0.0, 1.0))


class TestOperations:
    def test_marginalize_sums_axis(self, rng):
        t = random_tensor(rng, A, B)
        m = marginalize(t, {"B"})
        np.testing.assert_allclose(m.values, t.values.sum(axis=1), atol=1e-15)
        assert m.names == ("A",)

    def test_marginalize_unknown_axis(self):
        with pytest.raises(UnknownAxis):
            marginalize(uniform(A), {"Q"})

    def test_restrict_renormalizes(self, rng):
        t = random_tensor(rng, A, B)
        r = restrict(t, {"B": 1})
        np.testing.assert_allclose(r.values, t.values[:, 1] / t.values[:, 1].sum(),
                                   atol=1e-15)

    def test_restrict_zero_mass_cell(self):
        t = ProbTensor.build((A, C), np.array([[0.5, 0.0], [0.5, 0.0]]))
        with pytest.raises(ZeroConditioningCell):
            restrict(t, {"C": 1})


class TestSerialization:
    def test_json_roundtrip(self, rng):
        t = random_tensor(rng, A, B)
        back = ProbTensor.from_json(t.to_json())
        assert back.axes == t.axes
        # build() renormalizes, which may shave the last ulp
        np.testing.assert_allclose(back.values, t.values, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_rejected(self, literal):
        text = '{"axes": [{"name": "A", "cardinality": 2}], "values": [%s, 1.0]}' % literal
        with pytest.raises(InvalidDistribution):
            ProbTensor.from_json(text)
        with pytest.raises(InvalidDistribution):
            ProbTensor.from_dict(json.loads(text))

    def test_row_major_flattening(self):
        t = ProbTensor.build((A, C), np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert json.loads(t.to_json())["values"] == [0.1, 0.2, 0.3, 0.4]


@st.composite
def tensors(draw):
    n_axes = draw(st.integers(1, 3))
    axes = tuple(VarSpace(f"N{i}", draw(st.integers(2, 4)))
                 for i in range(n_axes))
    shape = tuple(a.cardinality for a in axes)
    seed = draw(st.integers(0, 2 ** 31))
    vals = np.random.default_rng(seed).dirichlet(
        np.ones(int(np.prod(shape)))).reshape(shape)
    return ProbTensor.build(axes, vals)


@settings(max_examples=60, deadline=None)
@given(tensors(), st.data())
def test_mass_conserved_under_all_ops(t, data):
    assert abs(t.values.sum() - 1.0) <= MASS_TOL
    if len(t.axes) > 1:
        drop = data.draw(st.sampled_from(t.names))
        m = marginalize(t, {drop})
        assert abs(m.values.sum() - 1.0) <= MASS_TOL
    perm = data.draw(st.permutations(t.names))
    r = t.reorder(tuple(perm))
    assert abs(r.values.sum() - 1.0) <= MASS_TOL
