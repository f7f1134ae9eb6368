"""Tests for the RBF network: center selection, closed-form fit, spread
sweep and the error surface."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from eitprobe import rbf
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
def memo_model(memo_data, tiny_mesh):
    # hidden_count equals the training split so the fit can interpolate,
    # at one fixed spread and a lighter ridge
    inputs, targets = memo_data
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rbf, "_median_pairwise", lambda points: 2.0)
        mp.setattr(rbf, "_LADDER", (1.0,))
        mp.setattr(rbf, "_RIDGE", 1e-10)
        return train(inputs, targets, TrainConfig(hidden_count=27),
                     "postproc", tiny_mesh.mesh_id, "sched-memo")


def _split_indices(n):
    rng = np.random.default_rng(rbf._SEED)
    perm = rng.permutation(n)
    n_val = max(1, int(round(rbf._VAL_FRACTION * n)))
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
    def test_memorization(self, memo_data, memo_model, tiny_mesh):
        inputs, targets = memo_data
        model, trace = memo_model
        assert trace.n_rounds == 1
        assert model.spread == 2.0
        _, train_idx = _split_indices(inputs.shape[0])
        pred = predict(model, inputs[train_idx], tiny_mesh)
        mse = np.mean((pred - targets[train_idx]) ** 2)
        assert mse < 1e-6 * np.var(targets)

    def test_training_sample_reproduced(self, memo_data, memo_model,
                                        tiny_mesh):
        inputs, targets = memo_data
        model, _ = memo_model
        _, train_idx = _split_indices(inputs.shape[0])
        i = int(train_idx[0])
        pred = predict(model, inputs[i], tiny_mesh)
        err = np.linalg.norm(pred - targets[i]) / np.linalg.norm(targets[i])
        assert err < 1e-3

    def test_validation_round_selection(self, monkeypatch):
        rng = np.random.default_rng(7)
        inputs = rng.normal(size=(40, 8))
        proj = rng.normal(size=(8, 5))
        targets = np.sin(inputs @ proj)
        monkeypatch.setattr(rbf, "_PATIENCE", len(rbf._LADDER))
        cfg = TrainConfig(hidden_count=12)
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

    def test_patience_stops_the_sweep(self):
        # at the default patience: round 1 is best, and the three rounds
        # after it do no better
        rng = np.random.default_rng(2024)
        inputs = rng.normal(size=(60, 12))
        targets = np.tanh(inputs @ rng.normal(size=(12, 5)))
        cfg = TrainConfig(hidden_count=16)
        _, trace = train(inputs, targets, cfg, "postproc", "m", "s")
        assert trace.n_rounds == 5
        assert trace.selected_round == 1
        assert trace.n_rounds == trace.selected_round + 1 + rbf._PATIENCE
        assert trace.spreads == [trace.spreads[0] * m for m in rbf._LADDER[:5]]

    def test_default_spread_is_median_pairwise(self):
        rng = np.random.default_rng(8)
        inputs = rng.normal(size=(40, 8))
        targets = rng.normal(size=(40, 3))
        cfg = TrainConfig(hidden_count=10)
        _, trace = train(inputs, targets, cfg, "postproc", "m", "s")
        _, train_idx = _split_indices(40)
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
        cfg = TrainConfig(hidden_count=9)
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
        cfg = TrainConfig(hidden_count=8)
        model, _ = train(inputs, targets, cfg, "postproc", "m", "s")
        _, train_idx = _split_indices(30)
        x_tr = inputs[train_idx]
        assert np.allclose(model.input_mean, x_tr.mean(axis=0), atol=1e-12)
        assert np.allclose(model.input_scale, x_tr.std(axis=0), atol=1e-12)

    def test_fit_is_affine_equivariant(self):
        # the unpenalized bias makes ridge least squares commute with an
        # affine map of the targets, so no target rescaling is needed
        rng = np.random.default_rng(20)  # selects round 2 of 6, then stops
        inputs = rng.normal(size=(40, 6))
        targets = np.tanh(inputs @ rng.normal(size=(6, 4)))
        cfg = TrainConfig(hidden_count=12)
        m1, tr1 = train(inputs, targets, cfg, "postproc", "m", "s")
        m2, tr2 = train(inputs, 7.5 * targets - 0.3, cfg, "postproc", "m", "s")
        assert tr1.spreads == tr2.spreads
        assert tr1.selected_round == tr2.selected_round
        assert np.allclose(56.25 * np.array(tr1.val_mse), tr2.val_mse,
                           rtol=1e-9, atol=0.0)
        mesh = SimpleNamespace(mesh_id="m", n_nodes=4)
        probe = rng.normal(size=(15, 6))
        p1, p2 = predict(m1, probe, mesh), predict(m2, probe, mesh)
        assert np.max(np.abs(p2 - (7.5 * p1 - 0.3))) <= 1e-9 * np.max(np.abs(p2))

    def test_zero_targets_give_zero_weights(self):
        rng = np.random.default_rng(3)
        inputs = rng.normal(size=(30, 4))
        targets = np.zeros((30, 4))
        cfg = TrainConfig(hidden_count=10)
        model, _ = train(inputs, targets, cfg, "postproc", "m", "s")
        assert np.all(model.output_weights == 0.0)
        assert np.all(model.output_bias == 0.0)
        _, train_idx = _split_indices(30)
        # predict reads only the mesh's id and node count
        mesh = SimpleNamespace(mesh_id="m", n_nodes=4)
        assert np.all(predict(model, inputs[train_idx], mesh) == 0.0)

    def test_rank_deficient_gram(self, monkeypatch):
        # hidden + bias columns outnumber the training rows, and a spread
        # far below the point separation underflows every cross activation,
        # so with no ridge the gram loses rank exactly
        rng = np.random.default_rng(17)
        inputs = rng.normal(size=(12, 5))
        targets = rng.normal(size=(12, 2))
        monkeypatch.setattr(rbf, "_median_pairwise", lambda points: 1e-6)
        monkeypatch.setattr(rbf, "_LADDER", (1.0,))
        monkeypatch.setattr(rbf, "_RIDGE", 0.0)
        cfg = TrainConfig(hidden_count=11)
        with pytest.raises(SingularGramError,
                           match="fewer hidden units or more samples"):
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
        with pytest.raises(ValueError, match="at least 10"):
            train(good_x[:8], good_t[:8], cfg, "postproc", "m", "s")
        with pytest.raises(ValueError, match="training split"):
            big = TrainConfig(hidden_count=19)
            train(good_x, good_t, big, "postproc", "m", "s")
        with pytest.raises(ValueError, match="mode"):
            train(good_x, good_t, cfg, "fancy", "m", "s")
        with pytest.raises(ValueError):
            TrainConfig(hidden_count=0)

    def test_non_finite_inputs_refused(self):
        rng = np.random.default_rng(0)
        cfg = TrainConfig(hidden_count=5)
        x = rng.normal(size=(20, 6))
        x[3, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            train(x, rng.normal(size=(20, 3)), cfg, "postproc", "m", "s")
        t = rng.normal(size=(20, 3))
        t[7, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            train(rng.normal(size=(20, 6)), t, cfg, "postproc", "m", "s")

    def test_direct_mode_width(self):
        rng = np.random.default_rng(30)
        inputs = rng.normal(size=(12, 928))
        targets = rng.normal(size=(12, 3))
        cfg = TrainConfig(hidden_count=6)
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
        k = (np.linalg.norm(model.output_weights)
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
        for x in (inputs[0, :7], inputs[0, 0]):
            with pytest.raises(DimensionError):
                predict(model, x, tiny_mesh)

    def test_non_finite_input_refused(self, memo_data, memo_model,
                                      tiny_mesh):
        inputs, _ = memo_data
        model, _ = memo_model
        x = inputs[0].copy()
        x[4] = np.nan
        with pytest.raises(ValueError, match="finite"):
            predict(model, x, tiny_mesh)

    def test_output_size_must_match_mesh(self, tiny_mesh):
        rng = np.random.default_rng(2)
        inputs = rng.normal(size=(20, 6))
        targets = rng.normal(size=(20, 7))
        cfg = TrainConfig(hidden_count=5)
        model, _ = train(inputs, targets, cfg, "postproc",
                         tiny_mesh.mesh_id, "s")
        with pytest.raises(DimensionError):
            predict(model, inputs[0], tiny_mesh)
