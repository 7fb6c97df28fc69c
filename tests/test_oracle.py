"""Verification oracles: finite differences, grid densities, moment and
smoothness/dissipativity checks (including negative controls)."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atent.data import Dataset
from atent.models import batch_loss, build_mlp
from atent.oracle import (
    chain_moment_check,
    conv_block_forward,
    finite_difference_grad,
    grid_gibbs_density,
    lemma1_check,
    relative_error,
)
from atent.verify import scalar_chain


class TestFiniteDifferenceGrad:
    def test_square_at_three(self):
        g = finite_difference_grad(lambda v: float(v[0] ** 2), np.array([3.0]))
        assert abs(g[0] - 6.0) <= 1e-6

    def test_linear_is_exact(self):
        c = np.array([2.0, -3.0, 0.5])
        g = finite_difference_grad(lambda v: float(c @ v), np.zeros(3))
        assert np.max(np.abs(g - c)) <= 1e-10

    def test_cross_check_against_autodiff_mlp(self):
        rng = np.random.default_rng(0)
        p = build_mlp([3, 6, 2], seed=1)
        batch = Dataset(rng.random((4, 3)), np.eye(2)[rng.integers(0, 2, 4)])
        from atent.models import loss_and_grads

        _, wg, _ = loss_and_grads(p, batch, wrt="weights")
        t = p.weights["w0"]

        def f(arr):
            old = t.data
            t.data = arr
            try:
                return batch_loss(p, batch)
            finally:
                t.data = old

        fd = finite_difference_grad(f, t.data.copy())
        assert relative_error(wg["w0"], fd) <= 1e-4

    def test_rejects_bad_h_and_nonfinite(self):
        with pytest.raises(ValueError):
            finite_difference_grad(lambda v: 0.0, np.zeros(1), h=0.0)
        with pytest.raises(ValueError):
            finite_difference_grad(lambda v: float("nan"), np.zeros(1))


class TestConvBlockForward:
    """The direct-loop CNN block on hand-computed cases."""

    def test_centre_tap_then_pool_and_relu(self):
        # pre-activation x + 0.5; pool 2 drops the last column
        x = np.arange(20.0).reshape(1, 1, 4, 5) - 10.0
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        out = conv_block_forward(x, k, np.array([0.5]), pool=2)
        assert np.array_equal(out, [[[[0.0, 0.0], [6.5, 8.5]]]])

    def test_off_centre_taps_read_neighbours_and_zero_padding(self):
        x = np.arange(1.0, 13.0).reshape(1, 1, 3, 4)
        k = np.zeros((2, 1, 3, 3))
        k[0, 0, 1, 2] = 1.0  # out[i, j] = x[i, j + 1]
        k[1, 0, 0, 1] = 1.0  # out[i, j] = x[i - 1, j]
        out = conv_block_forward(x, k, np.zeros(2), pool=1)
        assert np.array_equal(out[0, 0], [[2, 3, 4, 0], [6, 7, 8, 0], [10, 11, 12, 0]])
        assert np.array_equal(out[0, 1], [[0, 0, 0, 0], [1, 2, 3, 4], [5, 6, 7, 8]])

    def test_input_channels_are_summed(self):
        x = np.stack([np.full((3, 3), 1.0), np.full((3, 3), 2.0)])[None]
        k = np.zeros((1, 2, 1, 1))
        k[0, :, 0, 0] = [3.0, -1.0]
        out = conv_block_forward(x, k, np.array([0.25]), pool=3)
        assert np.array_equal(out, [[[[1.25]]]])

    def test_five_by_five_corner_taps_read_two_off(self):
        # a 5x5 kernel pads by 2; each sample of the batch is its own plane
        x = np.stack([np.arange(1.0, 13.0), -np.arange(1.0, 13.0)]).reshape(2, 1, 3, 4)
        k = np.zeros((2, 1, 5, 5))
        k[0, 0, 0, 0] = 1.0  # out[i, j] = x[i - 2, j - 2]
        k[1, 0, 4, 4] = -1.0  # out[i, j] = -x[i + 2, j + 2]
        out = conv_block_forward(x, k, np.zeros(2), pool=1)
        assert np.array_equal(out[0, 0], [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 2]])
        assert np.array_equal(out[1, 1], [[11, 12, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        # the other pairs of sample and kernel are negative before the ReLU
        assert np.array_equal(out[0, 1], np.zeros((3, 4)))
        assert np.array_equal(out[1, 0], np.zeros((3, 4)))


class TestGridGibbsDensity:
    def test_constant_loss_reduces_to_gaussian(self):
        gamma, anchor = 4.0, 0.3
        grid = grid_gibbs_density(
            lambda pts: np.zeros(pts.shape[0]),
            anchor,
            gamma,
            bounds=[(anchor - 4.0, anchor + 4.0)],
            resolution=4001,
        )
        assert abs(grid.mean()[0] - anchor) <= 0.01 * 0.5
        assert abs(grid.variance()[0] - 0.25) <= 0.01 * 0.25

    def test_quadratic_loss_complete_the_square(self):
        a, gamma, anchor = 1.0, 4.0, 0.3
        expect_mean = gamma * anchor / (gamma - 2 * a)
        expect_var = 1.0 / (gamma - 2 * a)
        grid = grid_gibbs_density(
            lambda pts: a * (pts[:, 0] ** 2),
            anchor,
            gamma,
            bounds=[(expect_mean - 6.0, expect_mean + 6.0)],
            resolution=4001,
        )
        assert abs(grid.mean()[0] - expect_mean) <= 0.01 * abs(expect_mean)
        assert abs(grid.variance()[0] - expect_var) <= 0.01 * expect_var

    def test_asymmetric_loss_shifts_mass_uphill(self):
        anchor = 0.0
        grid = grid_gibbs_density(
            lambda pts: 1.5 * pts[:, 0],  # loss increases to the right
            anchor,
            4.0,
            bounds=[(-4.0, 4.0)],
            resolution=4001,
        )
        assert grid.mean()[0] > anchor

    def test_normalization_and_nonnegativity(self):
        grid = grid_gibbs_density(
            lambda pts: np.sin(pts).sum(axis=1),
            [0.1, -0.2],
            2.0,
            bounds=[(-3.0, 3.0), (-3.0, 3.0)],
            resolution=301,
        )
        assert abs(grid.probs.sum() - 1.0) <= 1e-10
        assert np.all(grid.probs >= 0.0)

    def test_refinement_consistency(self):
        # doubling the resolution moves moments by at most the prior grid error
        def density_at(res):
            return grid_gibbs_density(
                lambda pts: (pts[:, 0] ** 2) * 0.8,
                0.25,
                4.0,
                bounds=[(-5.0, 5.0)],
                resolution=res,
            )

        coarse = density_at(501)
        fine = density_at(1001)
        exact_mean = 4.0 * 0.25 / (4.0 - 1.6)
        exact_var = 1.0 / (4.0 - 1.6)
        coarse_err = abs(coarse.mean()[0] - exact_mean) + abs(coarse.variance()[0] - exact_var)
        shift = abs(fine.mean()[0] - coarse.mean()[0]) + abs(fine.variance()[0] - coarse.variance()[0])
        assert shift <= coarse_err + 1e-12

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            grid_gibbs_density(lambda p: np.zeros(len(p)), [0.0], 1.0, [(1.0, 0.0)], 10)
        with pytest.raises(ValueError):
            grid_gibbs_density(
                lambda p: np.zeros(len(p)), [0.0, 0.0, 0.0], 1.0,
                [(-1, 1), (-1, 1), (-1, 1)], 10,
            )


class TestChainMomentCheck:
    def _chain(self, gamma, grad_fn, seed=0, n=25_000):
        return scalar_chain(gamma, grad_fn, seed, anchor=0.3, steps=n)

    def test_constant_loss_chain_matches_grid(self):
        grid = grid_gibbs_density(
            lambda pts: np.zeros(pts.shape[0]), 0.3, 4.0, [(-3.7, 4.3)], 2001
        )
        samples = self._chain(4.0, lambda x: np.zeros_like(x))
        report = chain_moment_check(samples, grid)
        assert report.passed, (report.mean_rel_err, report.variance_rel_err)

    def test_quadratic_loss_chain_matches_grid(self):
        a, gamma = 1.0, 4.0
        grid = grid_gibbs_density(
            lambda pts: a * pts[:, 0] ** 2, 0.3, gamma, [(-5.4, 6.6)], 2001
        )
        samples = self._chain(gamma, lambda x: 2 * a * x, seed=1)
        report = chain_moment_check(samples, grid)
        assert report.passed, (report.mean_rel_err, report.variance_rel_err)

    def test_negative_control_wrong_gamma_fails(self):
        grid = grid_gibbs_density(
            lambda pts: np.zeros(pts.shape[0]), 0.3, 4.0, [(-3.7, 4.3)], 2001
        )
        samples = self._chain(8.0, lambda x: np.zeros_like(x), seed=2)
        assert not chain_moment_check(samples, grid).passed

    def test_divergent_chain_raises(self):
        with pytest.raises(ValueError):
            chain_moment_check(np.array([1.0, np.nan]), grid_gibbs_density(
                lambda pts: np.zeros(pts.shape[0]), 0.0, 1.0, [(-3, 3)], 101
            ))


class TestLemma1Check:
    def _quadratic(self, a=1.0):
        return lambda x: 2.0 * a * np.asarray(x)

    def test_quadratic_smoothness_and_dissipativity(self):
        # L(x) = ||x||^2 on [-5, 5]^2: beta = 2, Lipschitz sup = 2*sqrt(50)
        gamma = 3.0
        lip = 2.0 * math.sqrt(50.0)
        report = lemma1_check(
            self._quadratic(), beta=2.0, lipschitz=lip, gamma=gamma,
            anchor=[0.5, 0.5], bounds=[(-5, 5), (-5, 5)], n_points=10_000, seed=0,
        )
        assert report.smoothness_ratio <= report.smoothness_bound + 1e-8
        assert report.smoothness_bound == 5.0
        assert report.dissipativity_margin >= 0.0
        assert report.m == pytest.approx(0.75)
        assert report.b == pytest.approx(lip**2 / 3.0 + 1.5 * 0.5)
        assert report.passed

    def test_gamma_doubling_doubles_m(self):
        kw = dict(beta=2.0, lipschitz=20.0, anchor=[0.0], bounds=[(-5, 5)], n_points=100, seed=0)
        r1 = lemma1_check(self._quadratic(), gamma=2.0, **kw)
        r2 = lemma1_check(self._quadratic(), gamma=4.0, **kw)
        assert r2.m == 2 * r1.m

    def test_negative_control_understated_beta_fails(self):
        # concave loss -a x^2: curvatures add, so the ratio is exactly
        # gamma + 2a and an understated beta must fail
        report = lemma1_check(
            lambda x: -2.0 * np.asarray(x), beta=0.5, lipschitz=20.0, gamma=3.0,
            anchor=[0.0], bounds=[(-5, 5)], n_points=2000, seed=1,
        )
        assert not report.smooth_ok
        assert not report.passed

    def test_negative_control_understated_lipschitz_fails(self):
        report = lemma1_check(
            self._quadratic(), beta=2.0, lipschitz=1.0, gamma=3.0,
            anchor=[3.0, 0.0], bounds=[(-5, 5), (-5, 5)], n_points=5000, seed=2,
        )
        assert not report.dissipative_ok

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(0.5, 8.0), st.floats(0.2, 3.0))
    def test_certified_beta_never_exceeded(self, seed, gamma, a):
        report = lemma1_check(
            self._quadratic(a), beta=2 * a, lipschitz=2 * a * 5 * math.sqrt(2), gamma=gamma,
            anchor=[0.1, -0.2], bounds=[(-5, 5), (-5, 5)], n_points=500, seed=seed,
        )
        assert report.smoothness_ratio <= report.smoothness_bound + 1e-8
