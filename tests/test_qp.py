"""Minimum-deviation filter: KKT solutions, slack handling, baseline."""

import numpy as np
import pytest

from pcbf.qp import (
    AffineConstraint,
    build_cbf_constraint,
    solve_min_deviation,
)


from qp_oracle import grid_search, penalized_objective, random_instance, slsqp_reference


def test_hand_worked_projection():
    """mu = (2, 2) against u1 <= 0 and u2 <= 1 projects to (0, 1)."""
    res = solve_min_deviation(np.array([2.0, 2.0]),
                              [AffineConstraint(np.array([1.0, 0.0]), 0.0),
                               AffineConstraint(np.array([0.0, 1.0]), 1.0)])
    assert np.allclose(res.u, [0.0, 1.0], atol=1e-10)
    assert res.feasible
    assert sorted(res.active_set) == [0, 1]
    assert np.linalg.norm(res.u - [2.0, 2.0]) == pytest.approx(np.sqrt(5.0), abs=1e-9)


def test_inactive_constraint_returns_mu():
    mu = np.array([0.5, -0.5])
    res = solve_min_deviation(mu, [AffineConstraint(np.array([1.0, 1.0]), 10.0)])
    assert np.array_equal(res.u, mu)
    assert res.active_set == []


def test_single_row_analytic_projection():
    mu = np.array([1.0, 1.0, 0.0])
    a = np.array([1.0, 2.0, -1.0])
    res = solve_min_deviation(mu, [AffineConstraint(a, 1.0)])
    expected = mu - a * (a @ mu - 1.0) / (a @ a)
    assert np.allclose(res.u, expected, atol=1e-12)
    assert float(a @ res.u) == pytest.approx(1.0, abs=1e-9)


def test_zero_row_infeasible_flag():
    mu = np.array([0.0, 0.0])
    res = solve_min_deviation(mu, [AffineConstraint(np.zeros(2), -1.0)])
    assert not res.feasible
    assert np.array_equal(res.u, mu)
    assert res.infeasible_reason


def test_zero_row_satisfied_is_ignored():
    mu = np.array([0.3, 0.4])
    res = solve_min_deviation(mu, [AffineConstraint(np.zeros(2), 1.0)])
    assert res.feasible
    assert np.array_equal(res.u, mu)


def test_slacked_row_trades_against_penalty():
    """A slacked row alone gives the weighted least-squares compromise."""
    w = 1e3
    a = np.array([1.0])
    mu = np.array([1.0])
    res = solve_min_deviation(mu, [AffineConstraint(a, 0.0, slack_weight=w)])
    # minimize (u-1)^2 + w u^2  =>  u = 1/(1+w)
    assert res.u[0] == pytest.approx(1.0 / (1.0 + w), rel=1e-9)
    assert res.slack_values[0] == pytest.approx(res.u[0], rel=1e-9)


def test_hard_row_beats_slack():
    """Hard rows must hold exactly even when a slacked row pushes back."""
    res = solve_min_deviation(
        np.array([2.0, 0.0]),
        [AffineConstraint(np.array([1.0, 0.0]), 0.5),
         AffineConstraint(np.array([-1.0, 0.0]), 0.2, slack_weight=10.0)])
    assert res.u[0] <= 0.5 + 1e-9
    assert res.feasible


def test_active_set_indexes_constraints():
    """active_set counts every row, slacked ones included: a binding slacked
    row first and a binding hard row second give [1]."""
    res = solve_min_deviation(
        np.array([2.0, 2.0]),
        [AffineConstraint(np.array([1.0, 0.0]), 0.0, slack_weight=10.0),
         AffineConstraint(np.array([0.0, 1.0]), 1.0)])
    assert np.allclose(res.u, [2.0 / 11.0, 1.0], atol=1e-12)
    assert res.active_set == [1]
    assert res.slack_values == pytest.approx([2.0 / 11.0], rel=1e-12)


def test_three_slacked_rows_reach_the_optimum():
    """One hard row and three slacked rows at the controller's weight: the
    optimum pays two penalties, which guessing the violated rows from the
    last iterate never reached (it stopped at objective 8.335)."""
    mu = np.array([-1.77, 1.31, 1.98])
    cons = [AffineConstraint(np.array([0.34, -0.03, -0.81]), 0.25),
            AffineConstraint(np.array([-0.42, -0.76, -0.5]), 0.24, slack_weight=1e3),
            AffineConstraint(np.array([-0.78, -0.96, -0.05]), 0.22, slack_weight=1e3),
            AffineConstraint(np.array([-0.12, 0.42, 0.9]), 0.04, slack_weight=1e3)]
    res = solve_min_deviation(mu, cons)
    assert res.feasible
    assert np.max(np.abs(res.u - slsqp_reference(mu, cons))) <= 1e-6
    best, _ = grid_search(mu, cons)
    assert best == pytest.approx(6.6004, abs=1e-4)
    assert penalized_objective(res.u, mu, cons) == pytest.approx(best, abs=1e-6)
    assert res.slack_values == [max(0.0, float(c.row @ res.u) - c.bound) for c in cons[1:]]


def test_hard_row_with_many_slacked_rows_is_optimal():
    """200 instances of one hard row and 3-6 slacked rows (w = 1e3): the hard
    row holds and no penalized objective exceeds SLSQP's.  SLSQP may overshoot
    the hard row by ~1e-5 on stiff instances, so it can read slightly lower."""
    rng = np.random.default_rng(2024)
    m = 3
    for _ in range(200):
        k = int(rng.integers(3, 7))
        mu = rng.uniform(-2, 2, m)
        cons = [AffineConstraint(rng.uniform(-1, 1, m), float(rng.uniform(-1, 1)))]
        cons += [AffineConstraint(rng.uniform(-1, 1, m), float(rng.uniform(-1.5, 0.5)),
                                  slack_weight=1e3) for _ in range(k)]
        res = solve_min_deviation(mu, cons)
        assert res.feasible
        assert float(cons[0].row @ res.u) <= cons[0].bound + 1e-9 * (1.0 + abs(cons[0].bound))
        ref = slsqp_reference(mu, cons)
        assert (penalized_objective(res.u, mu, cons)
                <= penalized_objective(ref, mu, cons) * (1.0 + 1e-4))


def test_matches_independent_solver_on_random_instances():
    """The 200-instance grid-search comparison lives in the acceptance suite;
    this is a quick spot check against the scipy reference."""
    rng = np.random.default_rng(11)
    for _ in range(30):
        mu, cons = random_instance(rng)
        res = solve_min_deviation(mu, cons)
        assert res.feasible
        ref = slsqp_reference(mu, cons)
        assert np.max(np.abs(res.u - ref)) <= 1e-6


def test_complementarity_and_tightness():
    rng = np.random.default_rng(12)
    for _ in range(50):
        m = rng.integers(1, 5)
        mu = rng.uniform(-2, 2, m)
        u_feas = rng.uniform(-1, 1, m)
        cons = []
        for _ in range(rng.integers(1, 5)):
            a = rng.uniform(-1, 1, m)
            cons.append(AffineConstraint(a, float(a @ u_feas) + rng.uniform(0, 0.5)))
        res = solve_min_deviation(mu, cons)
        assert res.feasible
        for i, c in enumerate(cons):
            g = float(c.row @ res.u) - c.bound
            assert g <= 1e-8 * (1.0 + abs(c.bound))
            if i in res.active_set:
                assert abs(g) <= 1e-8


def test_projection_idempotent():
    rng = np.random.default_rng(13)
    for _ in range(20):
        m = rng.integers(1, 5)
        mu = rng.uniform(-2, 2, m)
        u_feas = rng.uniform(-1, 1, m)
        cons = [AffineConstraint(rng.uniform(-1, 1, m),
                                 float(np.zeros(m) @ np.zeros(m)) + rng.uniform(0, 1)
                                 + 0.0)
                for _ in range(2)]
        cons = [AffineConstraint(c.row, float(c.row @ u_feas) + 0.1) for c in cons]
        res1 = solve_min_deviation(mu, cons)
        res2 = solve_min_deviation(res1.u, cons)
        assert np.max(np.abs(res2.u - res1.u)) <= 1e-12


def test_build_cbf_constraint_bound():
    class FakeDeriv:
        constant = 0.7
        row = np.array([1.0, -2.0])

    def alpha(s):
        return 2.0 * s

    mu = np.array([0.1, 0.2])
    con = build_cbf_constraint(-0.3, FakeDeriv(), alpha, mu)
    # bound = alpha(0.3) - c0 + a.mu
    assert con.bound == pytest.approx(0.6 - 0.7 + (0.1 - 0.4))
    assert con.slack_weight is None
    con2 = build_cbf_constraint(0.1, FakeDeriv(), alpha, mu, slack_weight=1e3)
    assert con2.bound == pytest.approx(-0.2 - 0.7 + (0.1 - 0.4))
    assert con2.slack_weight == 1e3
