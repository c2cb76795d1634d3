import gc
import math
import warnings

import numpy as np
import pytest

from hnn import approx, encoding, neural, scheme
from hnn.errors import TrainingDiverged

from helpers import central_difference, reference_soft_argmax, reference_softmax


class TestForwardPlain:
    def test_zero_model_is_uniform(self):
        model = neural.LinearModel.zeros(4, 2)
        logits = model.logits(np.ones(4))
        assert np.array_equal(logits, [0.0, 0.0])
        assert np.allclose(neural.softmax(logits), [0.5, 0.5])
        assert neural.soft_argmax_value(logits, 1.0) == pytest.approx(1.5)

    def test_closed_form_two_class(self):
        # logits (ln 3, 0) at T=1: sigma = (0.75, 0.25), index sum 1.25;
        # a single feature x = [1] produces exactly those logits
        model = neural.LinearModel(np.array([[math.log(3.0), 0.0]]), np.zeros(2))
        logits = model.logits(np.array([1.0]))
        assert np.allclose(logits, [math.log(3.0), 0.0])
        assert np.allclose(neural.softmax(logits), [0.75, 0.25])
        assert neural.soft_argmax_value(logits, 1.0) == pytest.approx(1.25)

    def test_temperature_preserves_argmax(self, rng):
        logits = rng.normal(0, 2, (50, 4))
        base = np.argmax(reference_softmax(logits, 1.0), axis=1)
        for t in (0.5, 2.0, 17.0, 1000.0):
            assert np.array_equal(
                np.argmax(reference_softmax(logits, t), axis=1), base
            )

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_non_finite_or_non_positive_temperature_rejected(self, t):
        # an infinite temperature flattens every score to the midpoint
        with pytest.raises(ValueError):
            neural.SoftArgmaxHead(t, 2)
        with pytest.raises(ValueError):
            approx.SoftmaxConfig(temperature=t)


class TestSoftArgmaxBackward:
    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 6))
            z = rng.normal(0, 2, n)
            t = float(rng.uniform(0.3, 5.0))
            grad_z, grad_t = neural.soft_argmax_backward(z, t)
            fd_z = central_difference(
                lambda zz: neural.soft_argmax_value(zz, t), z
            )
            denom = np.maximum(np.abs(fd_z), 1e-6)
            assert np.max(np.abs(grad_z - fd_z) / denom) < 1e-4
            fd_t = (
                neural.soft_argmax_value(z, t + 1e-5)
                - neural.soft_argmax_value(z, t - 1e-5)
            ) / 2e-5
            denom_t = max(abs(fd_t), 1e-6)
            assert abs(grad_t - fd_t) / denom_t < 1e-4

    def test_symmetric_logits_gradient(self):
        # (0, 0): analytic gradient is +-(0.25)/T; checked against FD
        grad_z, _ = neural.soft_argmax_backward(np.zeros(2), 2.0)
        fd = central_difference(
            lambda z: neural.soft_argmax_value(z, 2.0), np.zeros(2)
        )
        assert np.allclose(grad_z, fd, atol=1e-9)
        assert np.allclose(np.abs(grad_z), 0.25 / 2.0)

    def test_gradient_vanishes_at_huge_temperature(self, rng):
        z = rng.normal(0, 2, 3)
        grad_z, grad_t = neural.soft_argmax_backward(z, 1e9)
        assert np.max(np.abs(grad_z)) < 1e-8
        assert abs(grad_t) < 1e-8

    def test_temperature_gradient_at_known_point(self):
        grad_z, grad_t = neural.soft_argmax_backward(np.array([1.0, 0.0]), 1.0)
        fd = (
            neural.soft_argmax_value(np.array([1.0, 0.0]), 1.0 + 1e-5)
            - neural.soft_argmax_value(np.array([1.0, 0.0]), 1.0 - 1e-5)
        ) / 2e-5
        assert abs(grad_t - fd) / abs(fd) < 1e-4


class TestTraining:
    def test_separable_blobs_reach_high_accuracy(self):
        rng = np.random.default_rng(0)
        data = neural.two_blob_dataset(400, 8, rng)
        cfg = neural.TrainConfig(
            learning_rate=0.1, epochs=120, noise_std=0.0, logit_radius=1.6,
            range_penalty_weight=10.0,
        )
        head = neural.SoftArgmaxHead(1.0, 2)
        model, history = neural.train_noise_injection(
            neural.LinearModel.zeros(8, 2), head, data, cfg, rng
        )
        pred = model.logits(data.features).argmax(axis=1)
        assert np.mean(pred == data.labels) >= 0.99
        # windowed means: the last 10 epochs' loss at most the first 10's
        assert np.mean(history[-10:]) <= np.mean(history[:10])

    def test_zero_epochs_leaves_model_unchanged(self, rng):
        data = neural.two_blob_dataset(64, 4, rng)
        cfg = neural.TrainConfig(epochs=0)
        start = neural.LinearModel(rng.normal(0, 1, (4, 2)), rng.normal(0, 1, 2))
        model, history = neural.train_noise_injection(
            start, neural.SoftArgmaxHead(1.0, 2), data, cfg, rng
        )
        assert np.array_equal(model.weights, start.weights)
        assert np.array_equal(model.bias, start.bias)
        assert history == []

    def test_noise_injection_accuracy_delta_reported(self):
        # paired runs: same seed, with and without injected noise; the
        # delta is reported, not bounded
        data = neural.two_blob_dataset(400, 8, np.random.default_rng(1))
        accs = {}
        for std in (0.0, 0.05):
            cfg = neural.TrainConfig(
                learning_rate=0.1, epochs=80, noise_std=std, logit_radius=1.6,
                range_penalty_weight=10.0,
            )
            model, _ = neural.train_noise_injection(
                neural.LinearModel.zeros(8, 2),
                neural.SoftArgmaxHead(1.0, 2),
                data,
                cfg,
                np.random.default_rng(2),
            )
            pred = model.logits(data.features).argmax(axis=1)
            accs[std] = float(np.mean(pred == data.labels))
        print(
            f"\nnoise-injection accuracy: clean {accs[0.0]:.4f}, "
            f"noisy {accs[0.05]:.4f}, delta {accs[0.0] - accs[0.05]:+.4f}"
        )
        assert accs[0.05] > 0.5  # still learns

    def test_zero_noise_matches_plain_gd_oracle(self):
        # with noise_std = 0 the trajectory must equal an independently
        # coded plain gradient-descent loop, step for step
        rng_data = np.random.default_rng(3)
        data = neural.two_blob_dataset(96, 4, rng_data)
        cfg = neural.TrainConfig(
            learning_rate=0.05, batch_size=32, epochs=5, noise_std=0.0,
            shuffle=False, range_penalty_weight=0.0,
        )
        model, _ = neural.train_noise_injection(
            neural.LinearModel.zeros(4, 2),
            neural.SoftArgmaxHead(1.0, 2),
            data,
            cfg,
            np.random.default_rng(4),
        )

        w = np.zeros((4, 2))
        b = np.zeros(2)
        for _ in range(cfg.epochs):
            for start in range(0, len(data), cfg.batch_size):
                x = data.features[start : start + cfg.batch_size]
                y = data.labels[start : start + cfg.batch_size]
                m = len(y)
                logits = x @ w + b
                zs = logits - logits.max(axis=-1, keepdims=True)
                e = np.exp(zs)
                probs = e / e.sum(axis=-1, keepdims=True)
                g = probs.copy()
                g[np.arange(m), y] -= 1.0
                g /= m * 1.0
                w = w - cfg.learning_rate * (x.T @ g)
                b = b - cfg.learning_rate * g.sum(axis=0)
        assert np.allclose(model.weights, w, rtol=0, atol=1e-14)
        assert np.allclose(model.bias, b, rtol=0, atol=1e-14)

    def test_zero_noise_adamw_matches_oracle(self):
        # bias-corrected AdamW with decoupled weight decay on W (not b),
        # coded independently, must take the same steps
        data = neural.two_blob_dataset(96, 4, np.random.default_rng(3))
        cfg = neural.TrainConfig(
            learning_rate=0.01, batch_size=32, epochs=5, noise_std=0.0,
            shuffle=False, range_penalty_weight=0.0, weight_decay=0.1,
            optimizer="adamw",
        )
        start = neural.LinearModel(
            np.random.default_rng(5).normal(0, 0.5, (4, 2)), np.zeros(2)
        )
        model, _ = neural.train_noise_injection(
            start, neural.SoftArgmaxHead(1.0, 2), data, cfg,
            np.random.default_rng(4),
        )

        params = [start.weights.copy(), start.bias.copy()]
        moments = [[np.zeros_like(p), np.zeros_like(p)] for p in params]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        t = 0
        for _ in range(cfg.epochs):
            for start_row in range(0, len(data), cfg.batch_size):
                x = data.features[start_row : start_row + cfg.batch_size]
                y = data.labels[start_row : start_row + cfg.batch_size]
                probs = reference_softmax(x @ params[0] + params[1])
                g = probs - np.eye(2)[y]
                g /= len(y)
                grads = [x.T @ g, g.sum(axis=0)]
                t += 1
                for i, (p, grad) in enumerate(zip(params, grads)):
                    m, v = moments[i]
                    m[:] = beta1 * m + (1 - beta1) * grad
                    v[:] = beta2 * v + (1 - beta2) * grad * grad
                    m_hat = m / (1 - beta1 ** t)
                    v_hat = v / (1 - beta2 ** t)
                    decay = cfg.weight_decay * p if i == 0 else 0.0
                    params[i] = p - cfg.learning_rate * (
                        m_hat / (np.sqrt(v_hat) + eps) + decay
                    )
        assert not np.allclose(model.weights, start.weights)
        assert np.allclose(model.weights, params[0], rtol=0, atol=1e-12)
        assert np.allclose(model.bias, params[1], rtol=0, atol=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_raises_with_config(self):
        data = neural.two_blob_dataset(64, 4, np.random.default_rng(5))
        cfg = neural.TrainConfig(learning_rate=1e12, epochs=50)
        with pytest.raises(TrainingDiverged, match="learning_rate"):
            neural.train_noise_injection(
                neural.LinearModel.zeros(4, 2),
                neural.SoftArgmaxHead(1.0, 2),
                data,
                cfg,
                np.random.default_rng(6),
            )


class TestCalibration:
    @staticmethod
    def synthetic_calibrated(m, rng, scale=1.0):
        # features are the true log-odds themselves (identity probe), and
        # labels are drawn from softmax(logits): population NLL then
        # bottoms out at T = scale
        z = rng.normal(0.0, 1.5, (m, 2))
        p = reference_softmax(z)
        labels = (rng.uniform(0, 1, m) < p[:, 1]).astype(int)
        model = neural.LinearModel(np.eye(2) * scale, np.zeros(2))
        return neural.Dataset(z, labels), model

    def test_recovers_unit_temperature(self):
        rng = np.random.default_rng(7)
        data, model = self.synthetic_calibrated(40_000, rng, scale=1.0)
        head = neural.calibrate_temperature(
            model, neural.SoftArgmaxHead(1.3, 2), data, min_temperature=0.25
        )
        assert abs(head.temperature - 1.0) < 0.05

    def test_recovers_doubled_temperature(self):
        rng = np.random.default_rng(8)
        data, model = self.synthetic_calibrated(40_000, rng, scale=2.0)
        head = neural.calibrate_temperature(
            model, neural.SoftArgmaxHead(1.0, 2), data
        )
        assert abs(head.temperature - 2.0) < 0.1

    def test_probe_frozen_bit_exact(self, rng):
        data = neural.two_blob_dataset(256, 4, rng)
        model = neural.LinearModel(rng.normal(0, 1, (4, 2)), rng.normal(0, 1, 2))
        w_before = model.weights.copy()
        b_before = model.bias.copy()
        neural.calibrate_temperature(model, neural.SoftArgmaxHead(1.0, 2), data)
        assert np.array_equal(model.weights, w_before)
        assert np.array_equal(model.bias, b_before)

    def test_floor_respected(self, rng):
        # sharply separable data pulls T below 1; the floor holds it
        data = neural.two_blob_dataset(512, 4, rng, separation=8.0)
        model = neural.LinearModel(rng.normal(0, 3, (4, 2)), np.zeros(2))
        head = neural.calibrate_temperature(
            model, neural.SoftArgmaxHead(1.0, 2), data
        )
        assert head.temperature >= 1.0


class TestEncryptedForward:
    def test_encrypted_logits_match_plain(self, head_keys, rng):
        params = head_keys.scheme
        k = params.slot_capacity
        d_in = 4
        model = neural.LinearModel(
            rng.normal(0, 0.5, (d_in, 2)), rng.normal(0, 0.2, 2)
        )
        feats = rng.uniform(-1, 1, (k, d_in))
        cts = neural.encrypt_features(head_keys.pk, feats, rng)
        logit_cts = neural.encrypted_logits(model, cts)
        plain = model.logits(feats)
        for c, ct in enumerate(logit_cts):
            got = scheme.decrypt_to_slots(head_keys.sk, ct)[:k]
            assert np.max(np.abs(got - plain[:, c])) < 2.0 ** -10

    @pytest.mark.parametrize("classes,temperature", [(2, 1.0), (3, 1.7), (5, 0.6)])
    def test_folded_probe_centers_and_tempers(self, rng, classes, temperature):
        model = neural.LinearModel(
            rng.normal(0, 2, (6, classes)), rng.normal(0, 1, classes)
        )
        feats = rng.uniform(-1, 1, (50, 6))
        z = model.logits(feats)
        got = neural._folded_probe(model, temperature).logits(feats)
        want = (z - z.mean(axis=1, keepdims=True)) / temperature
        assert np.max(np.abs(got - want)) < 1e-12
        assert np.max(np.abs(got.mean(axis=1))) < 1e-12

    def test_default_pipeline_chain_has_13_primes(self):
        # the default-1024 benchmark ring: linear layer + default head
        depth = neural.pipeline_depth(neural.head_config(neural.SoftArgmaxHead()))
        assert depth == 12
        params = scheme.param_gen(128, 512, depth, 40, allow_insecure=True)
        assert params.ring.ring_degree == 1024
        assert params.ring.level_count == 13

    def test_identity_model_preserves_feature_order(self, head_keys, rng):
        # class-1 logit = 2*x0: predictions sorted like feature zero
        params = head_keys.scheme
        k = params.slot_capacity
        w = np.zeros((3, 2))
        w[0, 1] = 2.0
        model = neural.LinearModel(w, np.zeros(2))
        head = neural.SoftArgmaxHead(1.0, 2)
        feats = np.zeros((k, 3))
        feats[:, 0] = np.linspace(-0.9, 0.9, k)
        cts = neural.encrypt_features(head_keys.pk, feats, rng)
        sa = neural.forward_encrypted(model, head, cts, head_keys.evk)
        scores = scheme.decrypt_to_slots(head_keys.sk, sa)[:k]
        assert np.all(np.diff(scores) > 0)
        plain_pred = model.logits(feats).argmax(axis=1)
        assert np.array_equal(neural.scores_to_classes(scores, 2), plain_pred)

    def test_forward_leaves_no_reference_cycles(self, head_keys, rng):
        # a cycle would pin the batch's ciphertexts and the evk until the
        # cyclic collector happens to run
        k = head_keys.scheme.slot_capacity
        model = neural.LinearModel(rng.normal(0, 0.4, (3, 3)), rng.normal(0, 0.1, 3))
        head = neural.SoftArgmaxHead(1.2, 3)
        cts = neural.encrypt_features(head_keys.pk, rng.uniform(-1, 1, (k, 3)), rng)
        neural.forward_encrypted(model, head, cts, head_keys.evk)  # fill lazy caches
        gc.collect()
        gc.disable()
        try:
            neural.forward_encrypted(model, head, cts, head_keys.evk)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_encrypted_matches_plain_head(self, head_keys, rng):
        params = head_keys.scheme
        k = params.slot_capacity
        model = neural.LinearModel(
            rng.normal(0, 0.4, (4, 2)), rng.normal(0, 0.1, 2)
        )
        head = neural.SoftArgmaxHead(1.2, 2)
        feats = rng.uniform(-1, 1, (k, 4))
        plain_sa = reference_soft_argmax(model.logits(feats), head.temperature)
        cts = neural.encrypt_features(head_keys.pk, feats, rng)
        sa = neural.forward_encrypted(
            model, head, cts, head_keys.evk, probe_key=head_keys.sk
        )
        scores = scheme.decrypt_to_slots(head_keys.sk, sa)[:k]
        assert np.max(np.abs(scores - plain_sa)) < 1e-3


class TestMetrics:
    def test_perfect_predictions(self):
        scores = np.array([1.0, 2.0, 1.0, 2.0])
        labels = np.array([0, 1, 0, 1])
        m = neural.compute_metrics(scores, labels)
        assert all(v == 1.0 for v in m.values())

    def test_hand_counted_confusion(self):
        # TP=3 FP=1 FN=1 TN=3 -> precision/recall/accuracy/F1 all 0.75
        scores = np.array([2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0])
        labels = np.array([1, 1, 1, 0, 1, 0, 0, 0])
        m = neural.compute_metrics(scores, labels)
        assert m["accuracy"] == pytest.approx(0.75)
        assert m["precision"] == pytest.approx(0.75)
        assert m["recall"] == pytest.approx(0.75)
        assert m["f1"] == pytest.approx(0.75)

    def test_random_scores_auroc_near_half(self):
        rng = np.random.default_rng(9)
        scores = rng.uniform(1, 2, 10_000)
        labels = rng.integers(0, 2, 10_000)
        m = neural.compute_metrics(scores, labels)
        assert abs(m["auroc"] - 0.5) < 0.02

    @pytest.mark.parametrize("classes", [0, 1, -2])
    def test_scores_to_classes_needs_two_classes(self, classes):
        # a class count below 2 used to clip every label to -1 or 0
        with pytest.raises(ValueError, match="class count"):
            neural.scores_to_classes(np.array([1.0, 2.0, 3.0]), classes)

    @pytest.mark.parametrize("classes", [2, 3, 5])
    def test_scores_beyond_int64_clip_without_a_cast_warning(self, classes):
        # a foreign sk decodes to huge scores; they clip to the end classes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = neural.scores_to_classes(
                np.array([1e30, -1e30, np.inf, -np.inf, 2.2]), classes
            )
            assert got.tolist() == [classes - 1, 0, classes - 1, 0, 1]
            with pytest.raises(ValueError, match="NaN"):
                neural.scores_to_classes(np.array([1.0, np.nan]), classes)

    def test_head_config_defaults_are_softmax_config_defaults(self):
        head = neural.SoftArgmaxHead(1.3, 3)
        assert neural.head_config(head) == approx.SoftmaxConfig(1.3, 3)
        cfg = neural.head_config(head, radius=1.5, exp_degree=9, inv_iterations=4)
        assert (cfg.radius, cfg.exp_degree, cfg.inv_iterations) == (1.5, 9, 4)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            neural.compute_metrics(np.array([1.0, 2.0]), np.array([1, 1]))


class TestDataPlumbing:
    def test_measured_noise_std_positive_and_small(self, small_keys):
        rng = np.random.default_rng(10)
        std = neural.measured_noise_std(small_keys, rng, trials=20)
        assert 0 < std < 1e-6
