"""The chi-square stream and pairing against the exact d=1 oracle at large N.

At d=1, eps=0 and the neg-dot cost, the cells of Gaussian noise are the
intervals of an upper envelope of lines, so the marginal, the chi-square
and the cell of every row are closed form (``oracles.envelope_1d``).
"""

import numpy as np
import pytest

from sdfm.costs import NEG_DOT, CostConfig
from sdfm.coupling import assign_batch
from sdfm.numerics import ARGMAX_TIE_TOL, Rng
from sdfm.semidual import Potential, TargetMeasure, chi2_batches, chi2_exact

from oracles import (
    cells_1d,
    envelope_1d,
    marginal_1d,
    optimal_g_1d,
    scores_two_pass,
)

EPS0 = CostConfig(kind=NEG_DOT, eps_raw=0.0)


def _target(n: int, seed: int) -> TargetMeasure:
    return TargetMeasure.from_points(Rng(seed).generator().standard_normal((n, 1)))


def test_oracle_cells_are_the_argmax_and_g_star_is_optimal():
    target = _target(300, 5)
    g_star = optimal_g_1d(target)
    m = marginal_1d(Potential(g=g_star, target=target, cost=EPS0))
    assert m.sum() == pytest.approx(1.0, abs=1e-12)
    assert chi2_exact(m, target.weights) < 1e-12
    # A perturbation pushes lines off the envelope; the cells stay the argmax.
    g = g_star + 0.5 * Rng(6).generator().standard_normal(300)
    pot = Potential(g=g, target=target, cost=EPS0)
    hull, breaks = envelope_1d(pot)
    assert 1 < len(hull) < 300 and np.all(np.diff(breaks) > 0)
    x = Rng(7).generator().standard_normal((20_000, 1))
    np.testing.assert_array_equal(cells_1d(pot, x),
                                  np.argmax(scores_two_pass(pot, x), axis=1))
    assert marginal_1d(pot).sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("total, batch, seed", [(32768, 2048, 3),
                                                (32769, 2048, 4)])
def test_chi2_stream_matches_exact_chi2_at_n_16384(total, batch, seed):
    # A smooth perturbation of g*: chi-square 0.53, and 1860 of the 16384
    # cells are empty.
    target = _target(16384, 1)
    g = optimal_g_1d(target) + 0.2 * np.sin(2.0 * target.points[:, 0])
    pot = Potential(g=g, target=target, cost=EPS0)
    exact = chi2_exact(marginal_1d(pot), target.weights)
    assert 0.4 < exact < 0.7
    scan = chi2_batches(pot, Rng(seed), total, batch)
    # 32769 rows: the 1-row tail joins the 16th batch.
    assert len(scan.values) == 16
    # 16 batch estimates: their standard error here is about 0.03.
    values = np.asarray(scan.values)
    se = np.std(values, ddof=1) / np.sqrt(len(values))
    assert 0.0 < se < 0.06
    assert abs(values.mean() - exact) <= 4.0 * se


def test_assign_batch_matches_exact_cells_at_n_65536():
    # At g*, 16384 rows against 65536 cells of width about 1e-5: some rows
    # lie within ARGMAX_TIE_TOL of a neighbour's score, and the tie rule may
    # give them that neighbour. Every other row gets its exact cell.
    target = _target(65536, 2)
    pot = Potential(g=optimal_g_1d(target), target=target, cost=EPS0)
    x = Rng(8).generator().standard_normal((16384, 1))
    exact = cells_1d(pot, x)
    got = assign_batch(pot, x, Rng(9))
    bad = np.flatnonzero(got != exact)
    scores = scores_two_pass(pot, x[bad])
    rows = np.arange(len(bad))
    gap = scores[rows, exact[bad]] - scores[rows, got[bad]]
    rounding = 8.0 * np.spacing(np.abs(scores).max(initial=1.0))
    assert np.all(np.abs(gap) <= ARGMAX_TIE_TOL + rounding)
