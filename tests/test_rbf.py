"""Tests for the RBF network: center selection, closed-form fit, spread
sweep and the error surface."""

import math

import numpy as np
import pytest

from eitprobe.errors import (DegenerateDataError, DimensionError,
                             ProvenanceError, SingularGramError)
from eitprobe.rbf import TrainConfig, _kmeans, predict, train


@pytest.fixture(scope="module")
def memo_data(tiny_mesh):
    rng = np.random.default_rng(11)
    inputs = rng.normal(size=(30, 12))
    targets = rng.uniform(0.0, 1.0, size=(30, tiny_mesh.n_nodes))
    return inputs, targets


@pytest.fixture(scope="module")
def memo_cfg():
    # hidden_count equals the training split so the fit can interpolate.
    return TrainConfig(hidden_count=27, spread=2.0, ridge=1e-10,
                       val_fraction=0.10, seed=3, max_rounds=1)


@pytest.fixture(scope="module")
def memo_model(memo_data, memo_cfg, tiny_mesh):
    inputs, targets = memo_data
    return train(inputs, targets, memo_cfg, "postproc",
                 tiny_mesh.mesh_id, "sched-memo")


def _split_indices(n, cfg):
    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(n)
    n_val = max(1, int(round(cfg.val_fraction * n)))
    return perm[:n_val], perm[n_val:]


def _centers(pts, k, seed):
    # k-means on z-scored points, the way ``train`` calls it
    sd = pts.std(axis=0)
    zs = (pts - pts.mean(axis=0)) / np.where(sd > 0, sd, 1.0)
    return _kmeans(zs, k, np.random.default_rng(seed))


class TestCenterSelection:
    def test_same_seed_same_centers(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(40, 5))
        a = _centers(pts, 6, seed=9)
        b = _centers(pts, 6, seed=9)
        assert a.shape == (6, 5)
        assert np.array_equal(a, b)

    def test_k_equals_n_returns_permutation(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(9, 4))
        centers = _centers(pts, 9, seed=2)
        zs = (pts - pts.mean(axis=0)) / pts.std(axis=0)
        got = sorted(map(tuple, centers))
        want = sorted(map(tuple, zs))
        assert got == want

    def test_two_blobs_get_one_center_each(self):
        rng = np.random.default_rng(4)
        lo = rng.normal(loc=-5.0, scale=0.3, size=(20, 3))
        hi = rng.normal(loc=5.0, scale=0.3, size=(20, 3))
        pts = np.vstack([lo, hi])
        centers = _centers(pts, 2, seed=0)
        mu, sd = pts.mean(axis=0), pts.std(axis=0)
        mean_lo = (lo.mean(axis=0) - mu) / sd
        mean_hi = (hi.mean(axis=0) - mu) / sd
        order = np.argsort(centers[:, 0])
        assert np.linalg.norm(centers[order[0]] - mean_lo) < 1e-8
        assert np.linalg.norm(centers[order[1]] - mean_hi) < 1e-8

    def test_identical_inputs(self):
        pts = np.tile([2.0, -1.0, 0.5], (12, 1))
        with pytest.raises(DegenerateDataError):
            _centers(pts, 2, seed=0)
        one = _centers(pts, 1, seed=0)
        assert one.shape == (1, 3)

    def test_more_centers_than_samples(self):
        pts = np.random.default_rng(0).normal(size=(5, 2))
        with pytest.raises(ValueError, match="5 samples"):
            _centers(pts, 6, seed=0)


class TestTraining:
    def test_memorization(self, memo_data, memo_cfg, memo_model):
        _, targets = memo_data
        model, trace = memo_model
        assert trace.n_rounds == 1
        assert model.spread == 2.0
        assert trace.train_mse[0] < 1e-6 * np.var(targets)

    def test_training_sample_reproduced(self, memo_data, memo_cfg,
                                        memo_model, tiny_mesh):
        inputs, targets = memo_data
        model, _ = memo_model
        _, train_idx = _split_indices(inputs.shape[0], memo_cfg)
        i = int(train_idx[0])
        pred = predict(model, inputs[i], tiny_mesh)
        err = np.linalg.norm(pred - targets[i]) / np.linalg.norm(targets[i])
        assert err < 1e-3

    def test_validation_round_selection(self):
        rng = np.random.default_rng(7)
        inputs = rng.normal(size=(40, 8))
        proj = rng.normal(size=(8, 5))
        targets = np.sin(inputs @ proj)
        cfg = TrainConfig(hidden_count=12, seed=5, max_rounds=8, patience=8)
        model, trace = train(inputs, targets, cfg, "postproc", "m", "s")
        assert trace.n_rounds == 8
        sel = trace.selected_round
        assert trace.val_mse[sel] == min(trace.val_mse)
        assert trace.val_mse[sel] <= trace.val_mse[0]
        assert model.spread == trace.spreads[sel]
        # ladder rungs alternate around the base spread
        base = trace.spreads[0]
        assert trace.spreads[1] == pytest.approx(1.5 * base, rel=1e-12)
        assert trace.spreads[2] == pytest.approx(0.75 * base, rel=1e-12)
        assert trace.spreads[3] == pytest.approx(2.25 * base, rel=1e-12)

    def test_default_spread_is_median_pairwise(self):
        rng = np.random.default_rng(8)
        inputs = rng.normal(size=(40, 8))
        targets = rng.normal(size=(40, 3))
        cfg = TrainConfig(hidden_count=10, seed=2, max_rounds=1)
        _, trace = train(inputs, targets, cfg, "postproc", "m", "s")
        _, train_idx = _split_indices(40, cfg)
        x_tr = inputs[train_idx]
        mu, sd = x_tr.mean(axis=0), x_tr.std(axis=0)
        xn = (x_tr - mu) / sd
        d2 = (np.sum(xn ** 2, 1)[:, None] + np.sum(xn ** 2, 1)[None, :]
              - 2.0 * xn @ xn.T)
        upper = np.maximum(d2, 0.0)[np.triu_indices(xn.shape[0], k=1)]
        want = math.sqrt(float(np.median(upper)))
        assert trace.spreads[0] == pytest.approx(want, rel=1e-12)

    def test_training_is_deterministic(self):
        rng = np.random.default_rng(13)
        inputs = rng.normal(size=(25, 6))
        targets = rng.normal(size=(25, 4))
        cfg = TrainConfig(hidden_count=9, seed=1, max_rounds=4)
        m1, _ = train(inputs, targets, cfg, "postproc", "m", "s")
        m2, _ = train(inputs, targets, cfg, "postproc", "m", "s")
        assert np.array_equal(m1.centers, m2.centers)
        assert np.array_equal(m1.output_weights, m2.output_weights)
        assert np.array_equal(m1.output_bias, m2.output_bias)
        assert m1.spread == m2.spread

    def test_normalization_fields(self):
        rng = np.random.default_rng(21)
        inputs = rng.normal(loc=3.0, scale=2.5, size=(30, 5))
        targets = rng.uniform(-4.0, 9.0, size=(30, 3))
        cfg = TrainConfig(hidden_count=8, seed=6, max_rounds=1)
        model, _ = train(inputs, targets, cfg, "postproc", "m", "s")
        _, train_idx = _split_indices(30, cfg)
        x_tr, t_tr = inputs[train_idx], targets[train_idx]
        assert np.allclose(model.input_mean, x_tr.mean(axis=0), atol=1e-12)
        assert np.allclose(model.input_scale, x_tr.std(axis=0), atol=1e-12)
        assert model.output_lo == t_tr.min()
        assert model.output_hi == t_tr.max()

    def test_zero_targets_give_zero_weights(self):
        rng = np.random.default_rng(3)
        inputs = rng.normal(size=(30, 4))
        targets = np.zeros((30, 4))
        cfg = TrainConfig(hidden_count=10, seed=0, max_rounds=2)
        model, trace = train(inputs, targets, cfg, "postproc", "m", "s")
        assert np.all(model.output_weights == 0.0)
        assert np.all(model.output_bias == 0.0)
        assert trace.train_mse[0] == 0.0

    def test_rank_deficient_gram(self):
        # hidden + bias columns outnumber the training rows, and a spread
        # far below the point separation underflows every cross activation,
        # so the gram loses rank exactly
        rng = np.random.default_rng(17)
        inputs = rng.normal(size=(12, 5))
        targets = rng.normal(size=(12, 2))
        cfg = TrainConfig(hidden_count=11, spread=1e-6, ridge=0.0,
                          seed=4, max_rounds=1)
        with pytest.raises(SingularGramError, match="raise ridge"):
            train(inputs, targets, cfg, "postproc", "m", "s")

    def test_input_validation(self):
        rng = np.random.default_rng(0)
        good_x = rng.normal(size=(20, 6))
        good_t = rng.normal(size=(20, 3))
        cfg = TrainConfig(hidden_count=5)
        with pytest.raises(DimensionError):
            train(good_x[0], good_t, cfg, "postproc", "m", "s")
        with pytest.raises(DimensionError):
            train(good_x, good_t[:19], cfg, "postproc", "m", "s")
        with pytest.raises(DimensionError, match="928"):
            train(good_x, good_t, cfg, "direct", "m", "s")
        with pytest.raises(ValueError, match="at least 10"):
            train(good_x[:8], good_t[:8], cfg, "postproc", "m", "s")
        with pytest.raises(ValueError, match="training split"):
            big = TrainConfig(hidden_count=19)
            train(good_x, good_t, big, "postproc", "m", "s")
        with pytest.raises(ValueError, match="mode"):
            train(good_x, good_t, cfg, "fancy", "m", "s")
        with pytest.raises(ValueError):
            TrainConfig(spread=-1.0).validate()
        with pytest.raises(ValueError):
            TrainConfig(val_fraction=0.9).validate()
        with pytest.raises(ValueError):
            TrainConfig(hidden_count=0).validate()

    def test_direct_mode_width(self):
        rng = np.random.default_rng(30)
        inputs = rng.normal(size=(12, 928))
        targets = rng.normal(size=(12, 3))
        cfg = TrainConfig(hidden_count=6, seed=0, max_rounds=1)
        model, _ = train(inputs, targets, cfg, "direct", "m", "s")
        assert model.mode == "direct"
        assert model.input_dim == 928


class TestPredict:
    def test_batch_matches_single(self, memo_data, memo_model, tiny_mesh):
        inputs, _ = memo_data
        model, _ = memo_model
        batch = predict(model, inputs[:3], tiny_mesh)
        one = predict(model, inputs[0], tiny_mesh)
        assert batch.shape == (3, tiny_mesh.n_nodes)
        assert one.shape == (tiny_mesh.n_nodes,)
        assert np.allclose(batch[0], one, rtol=1e-12, atol=1e-14)

    def test_output_change_bounded_by_lipschitz(self, memo_data, memo_model,
                                                tiny_mesh):
        # global bound on the network gradient: each Gaussian unit has
        # max slope exp(-1/2)/spread in normalized coordinates
        inputs, _ = memo_data
        model, _ = memo_model
        span = model.output_hi - model.output_lo
        k = (span * np.linalg.norm(model.output_weights)
             * math.sqrt(model.hidden_count) * math.exp(-0.5) / model.spread
             * float(np.max(1.0 / model.input_scale)))
        rng = np.random.default_rng(40)
        x = inputs[5]
        for scale in (1e-3, 1e-1, 1.0):
            delta = rng.normal(size=x.shape) * scale
            jump = np.linalg.norm(predict(model, x + delta, tiny_mesh)
                                  - predict(model, x, tiny_mesh))
            assert jump <= k * np.linalg.norm(delta) * (1 + 1e-9) + 1e-12

    def test_wrong_mesh(self, memo_data, memo_model, tiny_mesh_alt):
        inputs, _ = memo_data
        model, _ = memo_model
        with pytest.raises(ProvenanceError):
            predict(model, inputs[0], tiny_mesh_alt)

    def test_wrong_input_width(self, memo_data, memo_model, tiny_mesh):
        inputs, _ = memo_data
        model, _ = memo_model
        with pytest.raises(DimensionError):
            predict(model, inputs[0, :7], tiny_mesh)

    def test_output_size_must_match_mesh(self, tiny_mesh):
        rng = np.random.default_rng(2)
        inputs = rng.normal(size=(20, 6))
        targets = rng.normal(size=(20, 7))
        cfg = TrainConfig(hidden_count=5, seed=0, max_rounds=1)
        model, _ = train(inputs, targets, cfg, "postproc",
                         tiny_mesh.mesh_id, "s")
        with pytest.raises(DimensionError):
            predict(model, inputs[0], tiny_mesh)
