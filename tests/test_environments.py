"""Tests for the benchmark environment constructors."""

import itertools
import re

import numpy as np
import pytest

from rarl.environments import (
    FROZEN_LAKE_MAP,
    HIGH,
    LOW,
    RECHARGE,
    SEARCH,
    WAIT,
    evaluate_under_perturbation,
    example_a,
    frozen_lake_4x4,
    garnet,
    inventory,
    inventory_perturbed_demand,
    one_loop,
    recycling_robot,
    worst_gain_over,
)
from rarl.mdp import Policy, gain_and_bias, induced_chain, is_unichain


def all_deterministic_policies(mdp):
    for actions in itertools.product(range(mdp.n_actions), repeat=mdp.n_states):
        yield actions, Policy.deterministic(list(actions), mdp.n_actions)


class TestGarnet:
    def test_rows_are_simplex(self):
        m = garnet(6, 4, seed=0)
        np.testing.assert_allclose(m.kernel.sum(axis=2), 1.0, atol=1e-9)

    def test_deterministic_given_seed(self):
        a, b = garnet(5, 3, seed=9), garnet(5, 3, seed=9)
        np.testing.assert_array_equal(a.kernel, b.kernel)
        np.testing.assert_array_equal(a.reward, b.reward)

    def test_different_seeds_differ(self):
        a, b = garnet(5, 3, seed=1), garnet(5, 3, seed=2)
        assert not np.array_equal(a.kernel, b.kernel)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            garnet(0, 1, seed=0)


class TestExampleA:
    def test_kernels_valid(self):
        ex = example_a(1.0, 2.0, 4.0)
        for k in ex.kernels:
            np.testing.assert_allclose(np.asarray(k).sum(axis=2), 1.0)

    def test_enumeration_gain(self):
        from rarl.planners import finite_set_enumeration

        ex = example_a(1.0, 2.0, 4.0)
        assert finite_set_enumeration(ex.mdp, ex.kernels, ex.policy).gain == pytest.approx(3.0, abs=1e-12)


class TestRecyclingRobot:
    def test_recharge_and_wait_rows(self):
        m = recycling_robot()
        np.testing.assert_allclose(m.kernel[LOW, RECHARGE], [0.0, 1.0])
        assert m.reward[LOW, RECHARGE] == 0.0
        np.testing.assert_allclose(m.kernel[LOW, WAIT], [1.0, 0.0])
        np.testing.assert_allclose(m.kernel[HIGH, WAIT], [0.0, 1.0])
        assert m.reward[LOW, WAIT] == m.reward[HIGH, WAIT] == 1.0

    def test_certain_search_never_depletes(self):
        m = recycling_robot(alpha=1.0)
        np.testing.assert_allclose(m.kernel[LOW, SEARCH], [1.0, 0.0])
        assert m.reward[LOW, SEARCH] == pytest.approx(2.0)

    def test_search_reward_mixes_rescue_penalty(self):
        m = recycling_robot(alpha=0.25, r_search=2.0, rescue_penalty=-3.0)
        assert m.reward[LOW, SEARCH] == pytest.approx(0.25 * 2.0 + 0.75 * -3.0)

    def test_unichain_characterization(self):
        # every deterministic policy is unichain except the two that freeze both
        # battery levels (wait/wait-or-recharge splits); those two closed
        # self-loops are forced by the wait-keeps-level dynamics
        m = recycling_robot()
        exceptions = {(WAIT, WAIT), (WAIT, RECHARGE)}
        for actions, policy in all_deterministic_policies(m):
            p_pi, _ = induced_chain(m, policy)
            assert is_unichain(p_pi) == (actions not in exceptions), actions


class TestInventory:
    def test_point_mass_demand_zero_order(self):
        demand = np.zeros(17)
        demand[0] = 1.0
        m = inventory(demand=demand)
        for s in range(17):
            assert m.reward[s, 0] == pytest.approx(-3.0 * s)
            assert m.kernel[s, 0, s] == pytest.approx(1.0)

    def test_met_demand_adds_revenue(self):
        demand = np.zeros(17)
        demand[2] = 1.0
        m = inventory(demand=demand)
        # a = 3 from s = 0: stock 3 >= demand 2 -> revenue 10, order 3, holding 9
        assert m.reward[0, 3] == pytest.approx(-3.0 - 3.0 * 3 + 5.0 * 2)

    def test_unmet_demand_penalty(self):
        demand = np.zeros(17)
        demand[5] = 1.0
        m = inventory(demand=demand)
        assert m.reward[0, 0] == pytest.approx(-15.0)

    def test_uniform_demand_rows_sum(self):
        m = inventory()
        assert m.n_states == 17 and m.n_actions == 9

    @pytest.mark.parametrize(
        "demand, problem",
        [
            ([np.nan] + [1 / 16] * 16, "non-finite entry nan at (d=0)"),  # NaN fails no sum or sign test
            ([0.5, -0.5, 1.0], "negative entry -0.5 at (d=1)"),
            ([0.5, 0.4], "row sum 0.9"),
            ([[1.0]], "shape (1, 1)"),
        ],
    )
    def test_rejects_demand_that_is_not_a_distribution(self, demand, problem):
        with pytest.raises(ValueError, match=re.escape(f"demand must be a probability vector: {problem}")):
            inventory(demand=np.array(demand))

    def test_order_truncated_at_capacity(self):
        demand = np.zeros(17)
        demand[0] = 1.0
        m = inventory(demand=demand)
        assert m.kernel[16, 8, 16] == pytest.approx(1.0)


class TestPerturbedDemand:
    def test_b_zero_uniform(self):
        np.testing.assert_allclose(inventory_perturbed_demand(0, 0.0, 17), np.full(17, 1 / 17))

    @pytest.mark.parametrize("m,b", [(0, 0.25), (5, 0.5), (15, 1.0), (3, 0.0)])
    def test_mass_sums_to_one(self, m, b):
        u = inventory_perturbed_demand(m, b, 17)
        assert u.sum() == pytest.approx(1.0, abs=1e-12)
        assert u.min() >= 0.0

    def test_b_one_concentrates_on_pair(self):
        u = inventory_perturbed_demand(4, 1.0, 17)
        assert u[4] == pytest.approx(0.5) and u[5] == pytest.approx(0.5)
        assert u.sum() == pytest.approx(1.0)
        assert np.delete(u, [4, 5]).max() == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            inventory_perturbed_demand(16, 0.5, 17)
        with pytest.raises(ValueError):
            inventory_perturbed_demand(0, 1.5, 17)


class TestOneLoop:
    def test_gains(self):
        nominal, perturbed = one_loop()
        always_right = Policy.deterministic([1, 1], 2)
        always_left = Policy.deterministic([0, 0], 2)
        assert gain_and_bias(nominal, always_right).gain == pytest.approx(1.0, abs=1e-12)
        assert gain_and_bias(perturbed, always_right).gain == pytest.approx(-0.5, abs=1e-12)
        assert gain_and_bias(perturbed, always_left).gain == pytest.approx(0.0, abs=1e-12)

    def test_unichain_characterization(self):
        # the left@0/right@1 split freezes both states (forced by the self-loop
        # arrows); every other deterministic policy is unichain
        nominal, perturbed = one_loop()
        for actions, policy in all_deterministic_policies(nominal):
            p_pi, _ = induced_chain(nominal, policy)
            assert is_unichain(p_pi) == (actions != (0, 1)), actions
        for actions, policy in all_deterministic_policies(perturbed):
            p_pi, _ = induced_chain(perturbed, policy)
            assert is_unichain(p_pi), actions


class TestFrozenLake:
    def test_rows_sum_and_validate(self):
        frozen_lake_4x4()  # the MDP checks its rows when built

    def test_deterministic_when_no_slip(self):
        m = frozen_lake_4x4(slip_probability=0.0)
        # from the start tile, moving right lands on tile 1
        assert m.kernel[0, 2, 1] == pytest.approx(1.0)

    def test_walls_reflect(self):
        m = frozen_lake_4x4(slip_probability=0.0)
        # moving up from the top-left corner stays put
        assert m.kernel[0, 3, 0] == pytest.approx(1.0)

    def test_holes_and_goal_self_loop(self):
        m = frozen_lake_4x4()
        tiles = "".join(FROZEN_LAKE_MAP)
        for s, t in enumerate(tiles):
            if t in "HG":
                assert m.kernel[s, :, s].min() == pytest.approx(1.0)
        goal = tiles.index("G")
        assert m.reward[goal].min() == 1.0
        assert m.reward[: goal].max() == 0.0

    def test_slip_splits_probability(self):
        m = frozen_lake_4x4(slip_probability=2.0 / 3.0)
        # start tile, action right: intended 1/3 to tile 1, 1/3 down to 4, 1/3 up (wall -> stay)
        assert m.kernel[0, 2, 1] == pytest.approx(1 / 3)
        assert m.kernel[0, 2, 4] == pytest.approx(1 / 3)
        assert m.kernel[0, 2, 0] == pytest.approx(1 / 3)


class TestEvaluateUnderPerturbation:
    def test_nominal_perturbation_is_identity(self):
        m = garnet(4, 2, seed=30)
        policy = Policy.uniform(4, 2)
        assert evaluate_under_perturbation(policy, m) == pytest.approx(gain_and_bias(m, policy).gain)

    def test_one_loop_robust_vs_nonrobust_gap(self):
        _, perturbed = one_loop()
        assert evaluate_under_perturbation(Policy.deterministic([0, 0], 2), perturbed) == pytest.approx(0.0)
        assert evaluate_under_perturbation(Policy.deterministic([1, 1], 2), perturbed) == pytest.approx(-0.5)

    def test_worst_over_singleton(self):
        m = garnet(3, 2, seed=31)
        policy = Policy.uniform(3, 2)
        assert worst_gain_over(policy, [m]) == pytest.approx(gain_and_bias(m, policy).gain)
        with pytest.raises(ValueError):
            worst_gain_over(policy, [])
