"""Shared oracle helpers for the test suite.

Effect references come from :func:`triproxy.scm.effects`; the helpers here
cover what it does not: the rank-invariance premise of the bounds, the
clamp-both intervention ``E[Y(x, w)]`` and a CDF comparison.  All of them
read exact structural-model joints, independently of the identification
code under test; ``clamp_xw_mean`` reads the same ``E[Y(x, w)]`` off an
identified model, for comparison with the oracle.  The figure lists of the
propositions are the graph tests' expected values.
"""

import numpy as np
import pytest

from triproxy.pipelines import LatentOutcomeModel
from triproxy.prob import marginalize
from triproxy.scm import Npsem, arm_label, counterfactual_joint

#: one PASS/FAIL line per acceptance criterion, echoed after the test run
ACCEPTANCE_LINES: list[str] = []

#: figures each proposition speaks about (Proposition 5's two conclusions
#: apply to different figure families, listed below)
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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def check_rank_invariance(m: Npsem, given: str | None = None, tol: float = 1e-12) -> bool:
    """Does the structural model satisfy rank invariance: within each level
    of ``given`` (if a node is named), is the stratum effect
    ``E[Y(1) - Y(0) | W]`` weakly increasing in ``E[Y(0) | W]``?  The bounds
    assume it, and observables cannot test it."""
    keep = m.latent + ((given,) if given else ())
    arms = tuple(arm_label("Y", (x,)) for x in (0, 1))
    v = counterfactual_joint(m, ("X",), keep=keep).reorder(arms + keep).values
    v = v.reshape(v.shape[:3] + (-1,))               # (Y(0), Y(1), W, given)
    y = m["Y"].space.level_values()
    mass = v.sum(axis=(0, 1))
    cell = np.where(mass > 0, mass, 1.0)
    mean0 = np.einsum("a,abwg->wg", y, v) / cell
    cate = np.einsum("b,abwg->wg", y, v) / cell - mean0
    for g in np.flatnonzero(mass.sum(axis=0) > 1e-10):
        m0, c = mean0[:, g], cate[:, g]
        # a state j at least as high as i in E[Y(0) | W] has no smaller effect
        if np.any((m0[None, :] >= m0[:, None] - tol) & (c[None, :] < c[:, None] - tol)):
            return False
    return True


def oracle_clamp_xw_mean(m: Npsem, x: int, w: int, outcome: str = "Y") -> float:
    """E[Y(x, w)] by clamping both the treatment and the latent state."""
    joint = counterfactual_joint(m, ("X", "W"), outcome=outcome, keep=())
    y = m[outcome].space.level_values()
    a = arm_label(outcome, (x, w))
    pmf = marginalize(joint, set(joint.names) - {a}).reorder((a,)).values
    return float(y @ pmf)


def clamp_xw_mean(m: LatentOutcomeModel, x: int, w: int) -> float:
    """E[Y(x, w)] read off an identified model: the mean of the arm law of
    ``x`` within latent state ``w``,
    ``sum_x' f(Y(x) = y, W = w, X = x') / f(w)``, one formula for every
    design (the auxiliary design's arm laws already integrate V)."""
    y = m.y_space.level_values()
    return float(y @ m.arm_laws[x, :, w].sum(axis=1)) / float(m.wx_joint.values[w].sum())


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
