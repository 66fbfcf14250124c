"""Alternating trainer: closed-form updates, objective, convergence."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from fusehash import (
    AnchorSet,
    TrainConfig,
    TrainedModel,
    build_center_table,
    fit,
    fuse_encode_fixed,
    sign_to_pm1,
)
from fusehash import kernel, training
from fusehash.centers import assign_target_codes
from fusehash.exceptions import (
    DegenerateWeightError,
    EmptyBatchError,
    InvalidParameterError,
    NumericalError,
    ShapeError,
)
from fusehash.kernel import apply_kernel, select_anchors
from fusehash.training import (
    _gram_statistics,
    _ridge_solve,
    _squared_residual,
    objective,
    update_projection,
    update_weights,
)
from test_kernel import FLOAT32_BOUND, difference_kernel


def random_instance(rng, r, p, n, num_modalities):
    """A small problem with explicit target codes and kernel features."""
    targets = sign_to_pm1(rng.standard_normal((r, n)))
    feats = [rng.standard_normal((p, n)) for _ in range(num_modalities)]
    return targets, feats


def scalar_objective(projections, weights, kernel_features, targets, delta):
    """Direct per-entry evaluation of the training objective."""
    total = 0.0
    for proj, weight, feats in zip(projections, weights, kernel_features):
        resid = 0.0
        for i in range(targets.shape[0]):
            for j in range(targets.shape[1]):
                resid += (targets[i, j] - proj[i] @ feats[:, j]) ** 2
        total += resid / weight + delta * np.sum(proj * proj)
    return total


def reference_fit(features, labels, centers, config, max_iters=50, rel_tol=1e-5):
    """The training loop spelled out with the public per-step functions and
    its own stopping rule: training's values 50 and 1e-5 as literals, or
    the values a test patches into ``training``."""
    targets = assign_target_codes(centers, labels).astype(np.float64)
    num_anchors = min(config.num_anchors, len(labels))
    kernel_features = [
        apply_kernel(f, select_anchors(f, num_anchors, config.seed, modality_index=m))
        for m, f in enumerate(features)
    ]
    weights = np.full(len(features), 1.0 / len(features))
    trace, converged, projections = [], False, []
    for _ in range(max_iters):
        projections = [
            update_projection(targets, feats, weight, config.delta)
            for feats, weight in zip(kernel_features, weights)
        ]
        norms = [
            float(np.linalg.norm(targets - proj @ feats))
            for proj, feats in zip(projections, kernel_features)
        ]
        weights = update_weights(norms)
        value = objective(projections, weights, kernel_features, targets, config.delta)
        if trace and abs(trace[-1] - value) <= rel_tol * max(abs(trace[-1]), 1e-300):
            trace.append(value)
            converged = True
            break
        trace.append(value)
    return projections, weights, trace, converged


def assert_fit_matches_reference(features, labels, centers, config, **stopping):
    """``fit`` matches :func:`reference_fit`, which gets the values of a
    patched stopping rule as ``stopping``; returns the model.

    ``fit`` takes its residual norms from the Gram identity, or from a
    blocked residual pass in a near-exact fit; the reference takes them from
    a residual pass over the whole K. The two agree to rounding: projections
    within 1e-8 of their largest entry, weights within 1e-10, the trace
    within 1e-10 relative, and the same iterations and stop.
    """
    model = fit(features, labels, centers, config=config)
    projections, weights, trace, converged = reference_fit(
        features, labels, centers, config, **stopping
    )
    assert len(model.projections) == len(projections)
    for got, want in zip(model.projections, projections):
        assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()
    np.testing.assert_allclose(model.train_weights, weights, rtol=0, atol=1e-10)
    assert len(model.objective_trace) == len(trace)
    np.testing.assert_allclose(model.objective_trace, trace, rtol=1e-10, atol=0)
    assert model.converged == converged
    return model


class TestObjective:
    def test_zero_projection_gives_weighted_target_norm(self):
        rng = np.random.default_rng(0)
        targets, feats = random_instance(rng, 4, 3, 6, 2)
        projections = [np.zeros((4, 3)), np.zeros((4, 3))]
        value = objective(projections, np.array([0.5, 0.5]), feats, targets, delta=0.0)
        # each modality contributes (1 / 0.5) * ||T||_F^2
        want = 2 * (1 / 0.5) * np.sum(targets.astype(float) ** 2)
        assert value == pytest.approx(want)

    def test_perfect_fit_leaves_only_regularizer(self):
        rng = np.random.default_rng(1)
        feats = [np.eye(4)]
        targets = sign_to_pm1(rng.standard_normal((3, 4)))
        projections = [targets.astype(float)]  # W @ I == T exactly
        value = objective(projections, np.array([1.0]), feats, targets, delta=0.01)
        assert value == pytest.approx(0.01 * np.sum(projections[0] ** 2))

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(2)
        targets, feats = random_instance(rng, 5, 4, 7, 3)
        projections = [rng.standard_normal((5, 4)) for _ in range(3)]
        weights = np.array([0.2, 0.3, 0.5])
        value = objective(projections, weights, feats, targets, delta=0.05)
        want = scalar_objective(projections, weights, feats, targets, delta=0.05)
        assert value == pytest.approx(want, rel=1e-9)

    def test_zero_weight_rejected(self):
        rng = np.random.default_rng(3)
        targets, feats = random_instance(rng, 3, 2, 4, 1)
        with pytest.raises(DegenerateWeightError):
            objective([np.zeros((3, 2))], np.array([0.0]), feats, targets, delta=0.1)


class TestUpdateProjection:
    def test_identity_features_recover_targets(self):
        """With orthonormal features and tiny ridge, W K reproduces T."""
        rng = np.random.default_rng(4)
        targets = sign_to_pm1(rng.standard_normal((4, 6)))
        feats = np.eye(6)
        proj = update_projection(targets, feats, weight=0.5, delta=1e-12)
        np.testing.assert_allclose(proj, targets, atol=1e-9)

    def test_gradient_is_stationary(self):
        """The gradient (2/w)(W K - T) K^T + 2 delta W vanishes at the solve."""
        rng = np.random.default_rng(5)
        for _ in range(10):
            r, p, n = rng.integers(2, 8, size=3)
            targets = sign_to_pm1(rng.standard_normal((r, n)))
            feats = rng.standard_normal((p, n))
            weight = float(rng.uniform(0.1, 0.9))
            delta = float(rng.uniform(1e-4, 1e-1))
            proj = update_projection(targets, feats, weight=weight, delta=delta)
            grad = (2.0 / weight) * (proj @ feats - targets) @ feats.T + 2.0 * delta * proj
            scale = np.linalg.norm(targets.astype(float))
            assert np.linalg.norm(grad) < 1e-8 * scale

    def test_beats_numerical_descent(self):
        """L-BFGS from zero never finds a lower objective than the closed form."""
        rng = np.random.default_rng(6)
        r, p, n = 4, 3, 9
        targets = sign_to_pm1(rng.standard_normal((r, n)))
        feats = rng.standard_normal((p, n))
        weight, delta = 0.4, 0.02

        def fun(flat):
            proj = flat.reshape(r, p)
            resid = proj @ feats - targets
            value = np.sum(resid**2) / weight + delta * np.sum(proj**2)
            grad = (2.0 / weight) * resid @ feats.T + 2.0 * delta * proj
            return value, grad.ravel()

        result = minimize(fun, np.zeros(r * p), jac=True, method="L-BFGS-B")
        closed = update_projection(targets, feats, weight=weight, delta=delta)
        assert fun(closed.ravel())[0] <= result.fun + 1e-9
        np.testing.assert_allclose(closed, result.x.reshape(r, p), atol=1e-5)

    def test_ridge_shrinks_solution(self):
        rng = np.random.default_rng(7)
        targets = sign_to_pm1(rng.standard_normal((3, 8)))
        feats = rng.standard_normal((4, 8))
        small = update_projection(targets, feats, weight=1.0, delta=1e-6)
        large = update_projection(targets, feats, weight=1.0, delta=10.0)
        assert np.linalg.norm(large) < np.linalg.norm(small)

    def test_rejects_bad_scalars(self):
        targets = np.ones((2, 3))
        feats = np.ones((2, 3))
        with pytest.raises(InvalidParameterError):
            update_projection(targets, feats, weight=0.0, delta=0.1)
        with pytest.raises(InvalidParameterError):
            update_projection(targets, feats, weight=0.5, delta=0.0)
        with pytest.raises(ShapeError):
            update_projection(np.ones((2, 3)), np.ones((2, 4)), weight=0.5, delta=0.1)


class TestNonFiniteInput:
    @pytest.mark.parametrize("where", ["targets", "kernel features"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_solve_and_objective_raise(self, where, bad):
        """A NaN or infinity raises instead of coming out as NaN."""
        rng = np.random.default_rng(19)
        targets = sign_to_pm1(rng.standard_normal((4, 20))).astype(np.float64)
        feats = rng.standard_normal((5, 20))
        (targets if where == "targets" else feats)[2, 7] = bad
        with pytest.raises(NumericalError, match=where):
            update_projection(targets, feats, weight=0.5, delta=0.1)
        with pytest.raises(NumericalError, match=where):
            objective([np.zeros((4, 5))], np.array([1.0]), [feats], targets, delta=0.1)


class TestUpdateWeights:
    def test_equal_norms_split_evenly(self):
        weights = update_weights(np.array([2.0, 2.0]))
        np.testing.assert_allclose(weights, [0.5, 0.5])

    def test_proportional_to_norms(self):
        weights = update_weights(np.array([1.0, 3.0]))
        np.testing.assert_allclose(weights, [0.25, 0.75])

    def test_sums_to_one(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            norms = rng.uniform(0.01, 5.0, size=rng.integers(1, 6))
            assert update_weights(norms).sum() == pytest.approx(1.0, abs=1e-12)

    def test_minimizes_weighted_sum_on_simplex(self):
        """Grid search over the simplex cannot beat the closed-form weights.

        With residual norms g the weight subproblem is min over the simplex
        of sum g_m^2 / w_m, whose optimum is w proportional to g.
        """
        norms = np.array([1.0, 2.0, 2.0])
        squares = norms**2
        best = update_weights(norms)
        best_value = np.sum(squares / best)
        step = 1e-3
        ticks = np.arange(step, 1.0, step)
        for a in ticks:
            bs = np.arange(step, 1.0 - a, step)
            cs = 1.0 - a - bs
            keep = cs > step / 2
            if not np.any(keep):
                continue
            values = squares[0] / a + squares[1] / bs[keep] + squares[2] / cs[keep]
            assert best_value <= values.min() + 1e-9
        np.testing.assert_allclose(best, norms / norms.sum(), rtol=1e-12)

    def test_optimal_value_is_squared_norm_sum(self):
        """At the optimum, sum g^2 / w collapses to (sum g)^2."""
        rng = np.random.default_rng(9)
        norms = rng.uniform(0.1, 4.0, size=4)
        weights = update_weights(norms)
        value = np.sum(norms**2 / weights)
        assert value == pytest.approx(np.sum(norms) ** 2, rel=1e-9)

    def test_zero_norm_clamped_not_crashed(self):
        weights = update_weights(np.array([0.0, 1.0]))
        assert weights[0] > 0
        assert weights.sum() == pytest.approx(1.0)


class TestFit:
    def test_trace_non_increasing_and_converges(self, standard_bundle):
        bundle = standard_bundle
        feats = bundle.features_at(bundle.train_indices)
        labels = bundle.labels_at(bundle.train_indices)
        centers = build_center_table(16, 4, seed=3)
        model = fit(feats, labels, centers, config=TrainConfig(seed=3))
        trace = np.asarray(model.objective_trace)
        assert model.converged
        assert len(trace) <= 10
        assert np.all(np.diff(trace) <= 1e-9 * np.abs(trace[:-1]))
        assert model.train_weights.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(model.train_weights > 0)

    def test_duplicated_modality_splits_evenly(self):
        rng = np.random.default_rng(11)
        base = rng.standard_normal((5, 30))
        labels = [{i % 2} for i in range(30)]
        centers = build_center_table(8, 2, seed=1)
        model = fit([base, base.copy()], labels, centers, config=TrainConfig(seed=1))
        np.testing.assert_allclose(model.train_weights, [0.5, 0.5], atol=1e-9)

    def test_single_modality_weight_is_one(self):
        rng = np.random.default_rng(10)
        feats = [rng.standard_normal((6, 40))]
        labels = [{i % 3} for i in range(40)]
        centers = build_center_table(8, 3, seed=0)
        model = fit(feats, labels, centers, config=TrainConfig(seed=0))
        np.testing.assert_allclose(model.train_weights, [1.0])

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        feats = [rng.standard_normal((4, 25)), rng.standard_normal((6, 25))]
        labels = [{i % 4} for i in range(25)]
        centers = build_center_table(8, 4, seed=7)
        a = fit([f.copy() for f in feats], list(labels), centers, config=TrainConfig(seed=7))
        b = fit([f.copy() for f in feats], list(labels), centers, config=TrainConfig(seed=7))
        for wa, wb in zip(a.projections, b.projections):
            np.testing.assert_array_equal(wa, wb)
        np.testing.assert_array_equal(a.train_weights, b.train_weights)
        assert a.objective_trace == b.objective_trace

    def test_rejects_mismatched_samples(self):
        rng = np.random.default_rng(13)
        feats = [rng.standard_normal((4, 10)), rng.standard_normal((4, 11))]
        labels = [{0} for _ in range(10)]
        with pytest.raises(ShapeError):
            fit(feats, labels, build_center_table(8, 2, seed=0))

    def test_rejects_no_modality(self):
        with pytest.raises(InvalidParameterError, match="need at least one modality"):
            fit([], [], build_center_table(8, 2, seed=0))

    def test_rejects_a_single_sample(self):
        with pytest.raises(InvalidParameterError, match="need at least 2 training samples, got 1"):
            fit([np.ones((3, 1))], [{0}], build_center_table(8, 2, seed=0))

    def test_singular_ridge_system_raises(self):
        """Identical samples give identical anchors, so K K^T has equal rows,
        and a delta of 1e-300 vanishes beside its entries of 4: the LU
        factorization meets an exactly zero pivot."""
        labels = [{0}, {1}, {0}, {1}]
        with pytest.raises(NumericalError, match="ridge system is singular"):
            fit([np.ones((3, 4))], labels, build_center_table(8, 2, seed=0), TrainConfig(delta=1e-300))

    def test_rejects_label_count_mismatch(self):
        rng = np.random.default_rng(14)
        feats = [rng.standard_normal((4, 10))]
        labels = [{0} for _ in range(9)]
        with pytest.raises(ShapeError):
            fit(feats, labels, build_center_table(8, 2, seed=0))

    @pytest.mark.parametrize("modality", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_features(self, modality, bad):
        rng = np.random.default_rng(17)
        feats = [rng.standard_normal((4, 20)), rng.standard_normal((3, 20))]
        feats[modality][1, 7] = bad
        labels = [{i % 2} for i in range(20)]
        with pytest.raises(NumericalError, match=f"modality {modality}"):
            fit(feats, labels, build_center_table(8, 2, seed=0))

    @pytest.mark.parametrize("spread", [3e18, 1e19, 1e20])
    def test_far_spread_features_train_within_the_float32_bound(self, spread):
        """At d = 8 such spreads put squared distances beyond float32, yet
        the map scales by 1/sigma before rounding: fit trains, and the kernel
        map lies within ``FLOAT32_BOUND`` of the difference form."""
        rng = np.random.default_rng(0)
        feats = [rng.standard_normal((4, 200)), rng.standard_normal((8, 200)) * spread]
        labels = [{i % 4} for i in range(200)]
        model = fit(feats, labels, build_center_table(16, 4, seed=0), TrainConfig(num_anchors=50))
        assert model.converged and np.isfinite(model.train_weights).all()
        anchor_set = model.anchor_sets[1]
        out = apply_kernel(feats[1], anchor_set)
        assert np.all(np.abs(out - difference_kernel(feats[1], anchor_set)) <= FLOAT32_BOUND)

    def test_features_beyond_the_float32_map_raise(self):
        """A training column at 1e300, not drawn as an anchor, has a scaled
        offset beyond float32: its map overflows into NaN, and fit names the
        modality instead of returning NaN projections and weights."""
        rng = np.random.default_rng(0)
        feats = [rng.standard_normal((4, 200)), rng.standard_normal((8, 200))]
        feats[1][:, 7] *= 1e300
        assert np.abs(select_anchors(feats[1], 50, seed=0).anchors).max() < 10
        labels = [{i % 4} for i in range(200)]
        with pytest.raises(NumericalError, match="modality 1 kernel features"):
            fit(feats, labels, build_center_table(16, 4, seed=0), TrainConfig(num_anchors=50))

    def test_features_too_far_apart_for_a_width_raise(self):
        """At 1e160 the anchors' squared distances overflow float64: the
        width would be infinite. Fit names the modality, and numpy prints no
        overflow warning first."""
        rng = np.random.default_rng(0)
        feats = [rng.standard_normal((4, 200)), rng.standard_normal((8, 200)) * 1e160]
        labels = [{i % 4} for i in range(200)]
        with pytest.raises(NumericalError, match="^modality 1 features lie too far apart"):
            fit(feats, labels, build_center_table(16, 4, seed=0), TrainConfig(num_anchors=50))

    def test_features_at_1e17_still_train(self):
        rng = np.random.default_rng(0)
        feats = [rng.standard_normal((4, 200)), rng.standard_normal((8, 200)) * 1e17]
        labels = [{i % 4} for i in range(200)]
        model = fit(feats, labels, build_center_table(16, 4, seed=0), TrainConfig(num_anchors=50))
        assert model.converged
        assert np.isfinite(model.train_weights).all()
        assert all(np.isfinite(proj).all() for proj in model.projections)
        codes = fuse_encode_fixed(model, feats)
        assert len({column.tobytes() for column in codes.T}) > 1

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        num_modalities=st.integers(1, 3),
        num_samples=st.integers(6, 30),
        anchor_share=st.floats(0.2, 1.0),
        max_iters=st.sampled_from([1, 2, 50]),
        delta=st.sampled_from([1e-3, 0.1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference_loop(
        self, num_modalities, num_samples, anchor_share, max_iters, delta, seed
    ):
        """Projections, weights, trace and convergence match the per-step loop."""
        rng = np.random.default_rng(seed)
        feats = [
            rng.standard_normal((int(rng.integers(1, 6)), num_samples))
            for _ in range(num_modalities)
        ]
        labels = [{int(c)} for c in rng.integers(0, 3, num_samples)]
        centers = build_center_table(16, 3, seed=seed % 7)
        config = TrainConfig(
            delta=delta,
            seed=seed % 1000,
            num_anchors=max(1, round(anchor_share * num_samples)),
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(training, "MAX_ITERS", max_iters)
            model = assert_fit_matches_reference(
                feats, labels, centers, config, max_iters=max_iters
            )
        if max_iters == 1:
            assert not model.converged and len(model.objective_trace) == 1

    def test_reference_loop_covers_all_anchors_and_iteration_cap(self):
        """The oracle's two named cases: p == n, and a run stopped by MAX_ITERS."""
        rng = np.random.default_rng(18)
        feats = [rng.standard_normal((3, 12)), rng.standard_normal((2, 12))]
        labels = [{i % 3} for i in range(12)]
        centers = build_center_table(8, 3, seed=0)
        config = TrainConfig(num_anchors=12)
        model = assert_fit_matches_reference(feats, labels, centers, config)
        assert model.projections[0].shape == (8, 12)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(training, "MAX_ITERS", 2)
            patch.setattr(training, "REL_TOL", 1e-300)
            model = assert_fit_matches_reference(
                feats, labels, centers, config, max_iters=2, rel_tol=1e-300
            )
        assert model.projections[0].shape == (8, 12)
        assert not model.converged and len(model.objective_trace) == 2

    def test_rejects_bad_config(self):
        """Construction rejects each, so ``fit`` never trains with them."""
        for overrides in [
            dict(delta=0.0),
            dict(delta=-1e-3),
            dict(delta=np.inf),
            dict(delta=np.nan),
            dict(num_anchors=0),
        ]:
            with pytest.raises(InvalidParameterError, match="must be"):
                TrainConfig(**overrides)


# Small enough that a few dozen columns span several kernel blocks.
SMALL_BLOCK = 8


class TestBlockedTraining:
    @pytest.mark.parametrize(
        "num_samples",
        [1, SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1, 2 * SMALL_BLOCK + 3],
    )
    def test_gram_statistics_equal_whole_products(self, monkeypatch, num_samples):
        """Blocked G and B equal K K^T and T K^T; byte-equal while one block
        (n < 1.5 KERNEL_BLOCK) holds every column."""
        monkeypatch.setattr(kernel, "KERNEL_BLOCK", SMALL_BLOCK)
        rng = np.random.default_rng(num_samples)
        anchor_set = select_anchors(rng.standard_normal((4, 7)), 7, seed=0)
        feats = 2.0 * rng.standard_normal((4, num_samples))
        targets = sign_to_pm1(rng.standard_normal((6, num_samples))).astype(np.float64)
        gram, cross = _gram_statistics(feats, anchor_set, targets)
        whole = apply_kernel(feats, anchor_set)
        for got, want in ((gram, whole @ whole.T), (cross, targets @ whole.T)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            if num_samples < 1.5 * SMALL_BLOCK:
                assert got.tobytes() == want.tobytes()

    def test_residual_pass_sums_every_block(self, monkeypatch):
        """With the share at 1 every squared residual takes the blocked pass,
        which over several blocks is the direct ||T - W K||^2."""
        monkeypatch.setattr(kernel, "KERNEL_BLOCK", SMALL_BLOCK)
        monkeypatch.setattr(training, "NEAR_EXACT_SHARE", 1.0)
        rng = np.random.default_rng(20)
        num_samples = 2 * SMALL_BLOCK + 3
        anchor_set = select_anchors(rng.standard_normal((4, 7)), 7, seed=0)
        feats = rng.standard_normal((4, num_samples))
        targets = sign_to_pm1(rng.standard_normal((6, num_samples))).astype(np.float64)
        gram, cross = _gram_statistics(feats, anchor_set, targets)
        proj = _ridge_solve(gram, cross, 0.5, 1e-3)
        got = _squared_residual(
            float(targets.size), proj, gram, cross, feats, anchor_set, targets
        )
        want = ((targets - proj @ apply_kernel(feats, anchor_set)) ** 2).sum()
        assert got == pytest.approx(want, rel=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        code_length=st.integers(1, 16),
        num_anchors=st.integers(1, 20),
        num_samples=st.integers(1, 40),
        weight=st.floats(0.01, 1.0),
        delta=st.sampled_from([1e-8, 1e-3, 0.1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gram_identity_matches_residual_pass(
        self, code_length, num_anchors, num_samples, weight, delta, seed
    ):
        """At a ridge solution the squared residual is the direct
        ||T - W K||^2 up to rounding of the identity's terms, within 1e-9
        ||T||^2 for the trainer's ridge range delta >= 1e-3, and within 1e-5
        of itself everywhere: where the identity would keep fewer digits (a
        near-exact fit, or a large W as delta -> 0) it is summed directly."""
        rng = np.random.default_rng(seed)
        anchor_set = select_anchors(
            rng.standard_normal((3, num_anchors)), num_anchors, seed=0
        )
        feats = rng.standard_normal((3, num_samples))
        whole = apply_kernel(feats, anchor_set)
        targets = sign_to_pm1(rng.standard_normal((code_length, num_samples))).astype(
            np.float64
        )
        gram, cross = whole @ whole.T, targets @ whole.T
        proj = _ridge_solve(gram, cross, weight, delta)
        energy = float(targets.size)
        want = ((targets - proj @ whole) ** 2).sum()
        got = _squared_residual(energy, proj, gram, cross, feats, anchor_set, targets)
        error = abs(got - want)
        size = abs(proj)
        magnitude = energy + 2.0 * (size * abs(cross)).sum() + ((size @ gram) * size).sum()
        assert error <= 1e-14 * magnitude
        assert error <= 1e-5 * want
        if delta >= 1e-3:
            assert error <= 1e-9 * energy

    def test_near_exact_fit_follows_residual_pass(self):
        """At delta = 1e-8 with p = n = 12 the identity's rounding would
        exceed a modality's squared residual, so the blocked residual pass
        sets the weights: the fit runs the reference's iterations, its trace
        does not rise, and its codes are the reference's. The weights agree
        to 1e-7, not 1e-10, because the ridge system's conditioning, about
        1/delta, amplifies rounding from one iteration to the next."""
        rng = np.random.default_rng(18)
        feats = [rng.standard_normal((3, 12)), rng.standard_normal((2, 12))]
        labels = [{i % 3} for i in range(12)]
        centers = build_center_table(8, 3, seed=0)
        config = TrainConfig(num_anchors=12, delta=1e-8)
        model = fit(feats, labels, centers, config=config)
        projections, weights, trace, converged = reference_fit(
            feats, labels, centers, config
        )
        assert model.converged == converged
        assert len(model.objective_trace) == len(trace)
        assert np.all(np.diff(model.objective_trace) <= 0)
        np.testing.assert_allclose(model.train_weights, weights, rtol=0, atol=1e-7)
        reference = TrainedModel(
            projections=projections,
            anchor_sets=model.anchor_sets,
            train_weights=weights,
            delta=config.delta,
        )
        np.testing.assert_array_equal(
            fuse_encode_fixed(model, feats), fuse_encode_fixed(reference, feats)
        )

    @pytest.mark.parametrize(
        "num_samples, num_anchors, delta, near_exact",
        [(60, 10, 1e-3, False), (12, 12, 1e-8, True)],
    )
    def test_residual_pass_runs_only_in_near_exact_fits(
        self, monkeypatch, num_samples, num_anchors, delta, near_exact
    ):
        """The kernel map runs once per modality for G and B; a fit that is
        not near exact takes every residual from the identity and maps no
        more, while a near-exact one maps again for its residuals."""
        calls = []

        def counted(feats, anchor_set):
            calls.append(anchor_set.modality_index)
            return kernel._kernel_blocks(feats, anchor_set)

        monkeypatch.setattr(training, "_kernel_blocks", counted)
        rng = np.random.default_rng(18)
        feats = [rng.standard_normal((d, num_samples)) for d in (3, 2)]
        labels = [{i % 3} for i in range(num_samples)]
        config = TrainConfig(num_anchors=num_anchors, delta=delta)
        fit(feats, labels, build_center_table(8, 3, seed=0), config=config)
        assert calls[: len(feats)] == [0, 1]
        assert (len(calls) > len(feats)) == near_exact

    def test_fit_memory_holds_no_kernel_matrix(self):
        """Training memory is O(M p^2 + p KERNEL_BLOCK + r n): the peak stays
        within 8 (M p^2 + 2 p KERNEL_BLOCK + 3 r n) bytes, 9.5 MB here, where
        a whole (p, n) K per modality alone would take 2 p n 8 = 39 MB."""
        n, p, r = 8 * kernel.KERNEL_BLOCK, 300, 16
        rng = np.random.default_rng(19)
        feats = [rng.standard_normal((8, n)), rng.standard_normal((4, n))]
        labels = [{i % 4} for i in range(n)]
        centers = build_center_table(r, 4, seed=0)
        config = TrainConfig(num_anchors=p)
        tracemalloc.start()
        try:
            fit(feats, labels, centers, config=config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (len(feats) * p * p + 2 * p * kernel.KERNEL_BLOCK + 3 * r * n)


class TestFuseEncodeFixed:
    def make_model(self, proj, anchors, weight):
        anchor_set = AnchorSet(anchors=anchors, kernel_width=1.5)
        return TrainedModel(
            projections=[proj],
            anchor_sets=[anchor_set],
            train_weights=np.array([weight]),
            delta=1e-3,
            objective_trace=[1.0],
            converged=True,
        )

    def test_single_modality_ignores_weight_scale(self):
        """With one modality any positive weight yields the same signs."""
        rng = np.random.default_rng(15)
        proj = rng.standard_normal((8, 5))
        anchors = rng.standard_normal((3, 5))
        feats = rng.standard_normal((3, 12))
        codes = [
            fuse_encode_fixed(self.make_model(proj, anchors, weight), [feats])
            for weight in (0.2, 1.0, 5.0)
        ]
        np.testing.assert_array_equal(codes[0], codes[1])
        np.testing.assert_array_equal(codes[1], codes[2])

    def test_code_length_is_read_from_the_projections(self):
        rng = np.random.default_rng(16)
        model = self.make_model(rng.standard_normal((16, 4)), rng.standard_normal((2, 4)), 1.0)
        assert model.code_length == 16
        assert fuse_encode_fixed(model, [np.zeros((2, 5))]).shape == (16, 5)

    def test_rejects_wrong_modality_count(self):
        rng = np.random.default_rng(16)
        model = self.make_model(
            rng.standard_normal((4, 3)), rng.standard_normal((2, 3)), 1.0
        )
        with pytest.raises(ShapeError):
            fuse_encode_fixed(model, [np.zeros((2, 5)), np.zeros((2, 5))])

    def two_modality_model(self, rng):
        return TrainedModel(
            projections=[rng.standard_normal((4, 3)) for _ in range(2)],
            anchor_sets=[AnchorSet(anchors=rng.standard_normal((2, 3)), kernel_width=1.5)] * 2,
            train_weights=np.array([0.4, 0.6]),
            delta=1e-3,
        )

    def test_rejects_modalities_of_different_sample_counts(self):
        model = self.two_modality_model(np.random.default_rng(17))
        with pytest.raises(ShapeError, match="disagree on sample count"):
            fuse_encode_fixed(model, [np.zeros((2, 5)), np.zeros((2, 6))])

    def test_rejects_zero_samples_like_every_encoder(self):
        model = self.two_modality_model(np.random.default_rng(17))
        with pytest.raises(EmptyBatchError):
            fuse_encode_fixed(model, [np.zeros((2, 0)), np.zeros((2, 0))])

    @pytest.mark.parametrize("module", ["fusehash.training", "fusehash.encoding"])
    def test_fresh_import_encodes(self, module):
        """``fuse_encode_fixed`` imports ``encoding`` when called, because
        ``encoding`` imports ``training``: a fresh interpreter importing
        either module first can encode, so the import has not moved to the
        top of ``training``, where it would be circular."""
        probe = (
            f"import {module}\n"
            "import numpy as np\n"
            "from fusehash import training\n"
            "from fusehash.kernel import AnchorSet\n"
            "model = training.TrainedModel(projections=[np.ones((4, 3))], "
            "anchor_sets=[AnchorSet(anchors=np.eye(2, 3), kernel_width=1.0)], "
            "train_weights=np.array([1.0]), delta=1e-3)\n"
            "print(training.fuse_encode_fixed(model, [np.zeros((2, 5))]).shape)\n"
        )
        package_root = str(Path(training.__file__).parents[1])  # the fusehash under test
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "(4, 5)"

    def test_reproduces_training_targets(self, standard_bundle, trained_standard):
        """Trained codes match the assigned class centers on most bits."""
        model, centers = trained_standard
        bundle = standard_bundle
        feats = bundle.features_at(bundle.train_indices)
        codes = fuse_encode_fixed(model, feats)
        labels = bundle.labels_at(bundle.train_indices)
        matches = 0
        total = 0
        for j, label_set in enumerate(labels):
            target = centers.centers[:, next(iter(label_set))]
            matches += int(np.sum(codes[:, j] == target))
            total += centers.centers.shape[0]
        assert matches / total > 0.9

    def test_codomain_and_shape(self, standard_bundle, trained_standard):
        model, _ = trained_standard
        bundle = standard_bundle
        feats = bundle.features_at(bundle.query_indices)
        codes = fuse_encode_fixed(model, feats)
        assert codes.shape == (16, len(bundle.query_indices))
        assert set(np.unique(codes)) <= {-1, 1}
