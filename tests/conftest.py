"""Shared oracle helpers for the test suite.

Everything here is computed by the structural-model enumeration oracle,
independently of the identification code under test.
"""

import numpy as np
import pytest

from triproxy.prob import ProbTensor, marginalize, restrict
from triproxy.scm import Npsem, arm_label, counterfactual_joint, observable_joint

#: one PASS/FAIL line per acceptance criterion, echoed after the test run
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def oracle_w_marginal(m: Npsem) -> np.ndarray:
    fj = observable_joint(m)
    return marginalize(fj, set(fj.names) - {"W"}).values


def _arm_means_by_w(m: Npsem, joint: ProbTensor, outcome: str) -> np.ndarray:
    """E[Y(x) | W = w] for both arms of a cross-world joint that keeps W,
    shape (2, |W|); every other kept axis is marginalized out."""
    y = m[outcome].space.level_values()
    out = np.empty((2, m["W"].space.cardinality))
    for x in (0, 1):
        a = arm_label(outcome, (x,))
        pair = marginalize(joint, set(joint.names) - {a, "W"}).reorder((a, "W"))
        out[x] = y @ (pair.values / pair.values.sum(axis=0))
    return out


def oracle_arm_means_by_w(m: Npsem, outcome: str = "Y",
                          treatment: str = "X") -> np.ndarray:
    """E[Y(x) | W = w] for both arms, shape (2, |W|)."""
    joint = counterfactual_joint(m, (treatment,), outcome=outcome, keep=("W",))
    return _arm_means_by_w(m, joint, outcome)


def oracle_cate_by_w(m: Npsem) -> np.ndarray:
    means = oracle_arm_means_by_w(m)
    return means[1] - means[0]


def oracle_effects(m: Npsem, outcome: str = "Y", treatment: str = "X") -> dict:
    """ATE, ATT, ATU, potential pmfs, and the effect-distribution CDF.

    One cross-world joint over (Y(0), Y(1), W, X) serves every arm quantity;
    the CATE marginalizes X out of it."""
    joint = counterfactual_joint(m, (treatment,), outcome=outcome,
                                 keep=("W", treatment))
    y = m[outcome].space.level_values()
    arms = [arm_label(outcome, (x,)) for x in (0, 1)]
    pot_y = np.empty((y.size, 2))
    by_x = []
    for x, a in enumerate(arms):
        t = marginalize(joint, set(joint.names) - {a, treatment})
        t = t.reorder((a, treatment)).values
        pot_y[:, x] = t.sum(axis=1)
        by_x.append(t / t.sum(axis=0))
    means = _arm_means_by_w(m, joint, outcome)
    cate = means[1] - means[0]
    w = oracle_w_marginal(m)

    order = np.argsort(cate, kind="stable")
    s = cate[order]
    keep = np.concatenate([[True], np.diff(s) > 1e-12])
    atoms = s[keep]
    group = np.cumsum(keep) - 1
    masses = np.zeros(atoms.size)
    np.add.at(masses, group, w[order])
    return {
        "ate": float(cate @ w),
        "att": float(y @ (by_x[1][:, 1] - by_x[0][:, 1])),
        "atu": float(y @ (by_x[1][:, 0] - by_x[0][:, 0])),
        "pot_y": pot_y,
        "cate": cate,
        "w": w,
        "beta_atoms": atoms,
        "beta_cdf": np.cumsum(masses),
    }


def oracle_clamp_xw_mean(m: Npsem, x: int, w: int, outcome: str = "Y") -> float:
    """E[Y(x, w)] by clamping both the treatment and the latent state."""
    joint = counterfactual_joint(m, ("X", "W"), outcome=outcome, keep=())
    y = m[outcome].space.level_values()
    a = arm_label(outcome, (x, w))
    pmf = marginalize(joint, set(joint.names) - {a}).reorder((a,)).values
    return float(y @ pmf)


def assert_cdf_match(atoms_a, cdf_a, atoms_b, cdf_b, tol):
    """Compare two discrete CDFs given as (sorted atoms, cdf values)."""
    __tracebackhide__ = True
    grid = np.union1d(atoms_a, atoms_b)

    def at(atoms, cdf, b):
        i = np.searchsorted(atoms, b + tol, side="left") - 1
        return 0.0 if i < 0 else cdf[i]

    for b in grid:
        va, vb = at(atoms_a, cdf_a, b), at(atoms_b, cdf_b, b)
        assert abs(va - vb) <= tol, f"CDF mismatch at {b}: {va} vs {vb}"


@pytest.fixture
def rng():
    return np.random.default_rng(0)
