"""Spectral factorization: forward-construction round trips, failure modes,
canonical ordering, and a brute-force check of the latent-label assignment."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triproxy.errors import (AmbiguousMatch, EigenGapExhausted, EnumerationTooLarge,
                             NegativeMass, RankDeficient, ZeroConditioningCell)
from triproxy.spectral import (COMPLETENESS_LABEL, DISTINCTNESS_LABEL,
                               HsOptions, canonical_order, hs_decompose,
                               match_permutation)


def random_factors(rng, nz, nc, nv, k):
    """Well-separated column-stochastic factors for forward construction."""
    z = rng.dirichlet(np.ones(nz), size=k).T
    # spread the signal columns so the eigenvalue gap is comfortable
    c = rng.dirichlet(np.ones(nc), size=k).T
    c = 0.2 * c + 0.8 * np.eye(nc)[:, :k]
    w_given_v = rng.dirichlet(np.ones(k), size=nv).T
    v = rng.dirichlet(np.ones(nv) * 5)
    return z, c, w_given_v, v


def forward(z, c, w_given_v, v):
    return np.einsum("zw,cw,wv,v->zcv", z, c, w_given_v, v)


def identical_signal_columns():
    """c_given_w has equal columns: every transfer matrix is a multiple of
    the identity, so no reweighting can separate the latent states."""
    rng = np.random.default_rng(1)
    z, _, w_given_v, v = random_factors(rng, 4, 3, 4, 2)
    c = np.tile(rng.dirichlet(np.ones(3))[:, None], (1, 2))
    return forward(z, c, w_given_v, v)


def complex_transfer_eigenvalues():
    """f[:, c, :] = B (I/2 +- 0.2 J) with J a quarter turn: every
    reweighting's transfer matrix is similar to I/2 + 0.2 (xi_0 - xi_1) J,
    whose eigenvalues are a conjugate pair with one real part."""
    b = np.array([[0.3, 0.2], [0.2, 0.3]])
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    return np.stack([b @ (0.5 * np.eye(2) + s * 0.2 * j) for s in (1, -1)], axis=1)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_recovers_factors(self, seed, k):
        rng = np.random.default_rng(seed)
        z, c, w_given_v, v = random_factors(rng, k + 2, k + 1, k + 2, k)
        fac = hs_decompose(forward(z, c, w_given_v, v), HsOptions(latent_dim=k))
        perm = canonical_order(z)
        np.testing.assert_allclose(fac.z_given_w, z[:, perm], atol=1e-8)
        np.testing.assert_allclose(fac.c_given_w, c[:, perm], atol=1e-8)
        np.testing.assert_allclose(fac.w_given_v, w_given_v[perm], atol=1e-8)
        np.testing.assert_allclose(fac.v_marginal, v, atol=1e-12)

    def test_canonical_order_under_input_latent_permutation(self):
        # permuting the latent axis of the construction reorders floating-
        # point sums, so the joints agree only to the last ulp; the recovered
        # factors must agree to the same precision and in the same order
        rng = np.random.default_rng(3)
        z, c, w_given_v, v = random_factors(rng, 4, 4, 4, 3)
        opts = HsOptions(latent_dim=3)
        a = hs_decompose(forward(z, c, w_given_v, v), opts)
        p = np.array([2, 0, 1])
        b = hs_decompose(forward(z[:, p], c[:, p], w_given_v[p], v), opts)
        np.testing.assert_allclose(a.z_given_w, b.z_given_w, atol=1e-12)
        np.testing.assert_allclose(a.c_given_w, b.c_given_w, atol=1e-12)
        np.testing.assert_allclose(a.w_given_v, b.w_given_v, atol=1e-12)

    def test_bitwise_identical_on_identical_input(self):
        rng = np.random.default_rng(3)
        f = forward(*random_factors(rng, 4, 4, 4, 3))
        opts = HsOptions(latent_dim=3)
        a, b = hs_decompose(f, opts), hs_decompose(f.copy(), opts)
        assert np.array_equal(a.z_given_w, b.z_given_w)
        assert np.array_equal(a.c_given_w, b.c_given_w)
        assert np.array_equal(a.w_given_v, b.w_given_v)


class TestFailureModes:
    def test_rank_deficient_product_proxy(self):
        # z independent of w: the (z, v) margin is rank one
        rng = np.random.default_rng(0)
        z = np.tile(rng.dirichlet(np.ones(4))[:, None], (1, 2))
        _, c, w_given_v, v = random_factors(rng, 4, 3, 4, 2)
        with pytest.raises(RankDeficient) as ei:
            hs_decompose(forward(z, c, w_given_v, v), HsOptions(latent_dim=2))
        assert COMPLETENESS_LABEL in str(ei.value)

    def test_latent_dim_exceeds_proxy(self):
        with pytest.raises(RankDeficient):
            hs_decompose(np.full((2, 3, 2), 1 / 12), HsOptions(latent_dim=3))

    def test_two_axis_joint_refused(self):
        with pytest.raises(ValueError, match="three-axis"):
            hs_decompose(np.full((2, 2), 0.25), HsOptions(latent_dim=1))

    @pytest.mark.parametrize("make", [identical_signal_columns, complex_transfer_eigenvalues],
                             ids=["identical-signal-columns", "complex-transfer-eigenvalues"])
    def test_eigen_gap_exhausted(self, make):
        with pytest.raises(EigenGapExhausted) as ei:
            hs_decompose(make(), HsOptions(latent_dim=2))
        assert DISTINCTNESS_LABEL in str(ei.value)

    def test_zero_conditioning_cell(self):
        rng = np.random.default_rng(2)
        z, c, w_given_v, v = random_factors(rng, 4, 3, 4, 2)
        v = v.copy()
        v[0] = 0.0
        v /= v.sum()
        with pytest.raises(ZeroConditioningCell):
            hs_decompose(forward(z, c, w_given_v, v), HsOptions(latent_dim=2))

    def test_negative_mass_on_corrupted_input(self):
        rng = np.random.default_rng(5)
        z, c, w_given_v, v = random_factors(rng, 4, 3, 4, 2)
        f = forward(z, c, w_given_v, v)
        f = f + rng.normal(scale=2e-2, size=f.shape)  # heavy corruption
        with pytest.raises((NegativeMass, EigenGapExhausted, RankDeficient)):
            hs_decompose(np.abs(f), HsOptions(latent_dim=2))


class TestMatchPermutation:
    def test_finds_permutation(self):
        rng = np.random.default_rng(6)
        ref = rng.dirichlet(np.ones(5), size=3).T
        p = np.array([1, 2, 0])
        perm = match_permutation(ref, ref[:, p])
        np.testing.assert_array_equal(ref[:, p][:, perm], ref)

    def test_tolerates_noise(self):
        rng = np.random.default_rng(7)
        ref = rng.dirichlet(np.ones(5), size=3).T
        p = np.array([2, 0, 1])
        cand = ref[:, p] + rng.normal(scale=1e-9, size=ref.shape)
        perm = match_permutation(ref, cand)
        np.testing.assert_allclose(cand[:, perm], ref, atol=1e-7)

    def test_ambiguous_when_columns_tie(self):
        ref = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(AmbiguousMatch):
            match_permutation(ref, ref)

    def test_shape_mismatch(self):
        with pytest.raises(AmbiguousMatch):
            match_permutation(np.ones((2, 2)) / 2, np.ones((2, 3)) / 2)

    def test_non_finite_entries_rejected(self):
        ref = np.array([[0.5, 0.2], [0.5, 0.8]])
        with pytest.raises(ValueError):
            match_permutation(ref, np.array([[np.nan, 0.2], [0.5, 0.8]]))

    def test_single_column(self):
        ref = np.array([[0.3], [0.7]])
        np.testing.assert_array_equal(match_permutation(ref, ref[::-1]), [0])

    def test_nine_columns_are_searched(self):
        rng = np.random.default_rng(8)
        ref = rng.dirichlet(np.ones(11), size=9).T
        p = rng.permutation(9)
        np.testing.assert_array_equal(ref[:, p][:, match_permutation(ref, ref[:, p])], ref)

    def test_ten_columns_refused_before_any_relabeling(self, monkeypatch):
        """10! * 10 summed costs exceed ENUMERATION_GUARD: the search is
        refused before a single permutation is built."""
        def build(*args):
            raise AssertionError("a permutation was built")
        rng = np.random.default_rng(9)
        ref = rng.dirichlet(np.ones(12), size=10).T
        monkeypatch.setattr(itertools, "permutations", build)
        with pytest.raises(EnumerationTooLarge,
                           match="36288000 costs, over the 10000000 guard"):
            match_permutation(ref, ref[:, ::-1])


def candidate_columns(rng, ref, kind):
    """A candidate column set: a noisy relabeling, two columns a hair apart,
    or two identical columns."""
    nz, k = ref.shape
    cand = ref[:, rng.permutation(k)] + rng.normal(scale=1e-3, size=ref.shape)
    if kind == "random":
        return rng.dirichlet(np.ones(nz), size=k).T if rng.random() < 0.5 else cand
    if kind == "near_tie" and k > 1:
        cand[:, 1] = cand[:, 0] + rng.choice([1e-8, 1e-4]) * np.linspace(-1, 1, nz)
    elif kind == "exact_tie" and k > 1:
        cand[:, 1] = cand[:, 0]
    return cand


@pytest.mark.parametrize("kind", ["random", "near_tie", "exact_tie"])
@pytest.mark.parametrize("k", range(1, 7))
def test_match_permutation_against_brute_force(k, kind):
    """The best of all k! relabelings is returned, and AmbiguousMatch is
    raised exactly when the two best distinct ones lie within the tolerance."""
    tol = 1e-6
    rng = np.random.default_rng(100 * k + len(kind))
    perms = np.array(list(itertools.permutations(range(k))))
    for _ in range(20):
        ref = rng.dirichlet(np.ones(4), size=k).T
        cand = candidate_columns(rng, ref, kind)
        cost = np.abs(ref[:, :, None] - cand[:, None, :]).sum(axis=0)
        totals = cost[np.arange(k), perms].sum(axis=1)
        order = np.argsort(totals, kind="stable")
        if k > 1 and totals[order[1]] - totals[order[0]] < tol:
            with pytest.raises(AmbiguousMatch):
                match_permutation(ref, cand)
        else:
            np.testing.assert_array_equal(match_permutation(ref, cand),
                                          perms[order[0]])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 4))
def test_property_roundtrip_residual(seed, k):
    """The recomposed joint always reproduces the input to tight tolerance."""
    rng = np.random.default_rng(seed)
    z, c, w_given_v, v = random_factors(rng, k + 2, k + 1, k + 2, k)
    f = forward(z, c, w_given_v, v)
    try:
        fac = hs_decompose(f, HsOptions(latent_dim=k))
    except EigenGapExhausted:
        return  # a legitimately hard draw; the error path is tested above
    np.testing.assert_allclose(
        forward(fac.z_given_w, fac.c_given_w, fac.w_given_v, fac.v_marginal),
        f, atol=1e-7)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 7))
def test_complex_eigenvalues_leave_no_real_part_gap(seed, n):
    """A real matrix's complex eigenvalues come in conjugate pairs with one
    real part, so the eigen-gap test refuses every reweighting that has any:
    no separate test of imaginary parts is needed."""
    t = np.random.default_rng(seed).normal(size=(n, n))
    vals, _ = np.linalg.eig(t)
    if np.any(vals.imag != 0):
        assert np.diff(np.sort(vals.real)).min() == 0.0
