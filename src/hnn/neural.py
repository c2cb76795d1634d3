"""Plaintext-side classifier with a differentiable soft-argmax head.

A linear probe over fixed feature vectors stands in for a full encrypted
backbone: training happens in the clear with Gaussian noise injected
into the features (statistically matched to the scheme's measured
encryption error), a range penalty keeps logits inside the encrypted
head's polynomial domain, and temperature calibration runs as a second
phase with the probe frozen. Inference can then run either in the clear
or through the encrypted head with features column-packed across slots
(ciphertext j carries feature j for the whole batch, so the
matrix-vector product needs no slot rotations).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import approx, encoding, scheme
from .approx import SoftmaxConfig
from .errors import TrainingDiverged

# calibrate_temperature's step size and step count on log T
CALIBRATION_LR = 0.2
CALIBRATION_STEPS = 800


@dataclasses.dataclass
class LinearModel:
    """weights: (d_in, n); bias: (n,). logits(x) = x @ weights + bias."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[1],):
            raise ValueError("weights (d_in, n) and bias (n,) do not line up")
        if self.weights.shape[1] < 2:
            raise ValueError("need at least two classes")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ValueError("model parameters must be finite")

    @property
    def d_in(self) -> int:
        return self.weights.shape[0]

    @property
    def class_count(self) -> int:
        return self.weights.shape[1]

    def logits(self, features: np.ndarray) -> np.ndarray:
        return np.asarray(features) @ self.weights + self.bias

    def copy(self) -> "LinearModel":
        return LinearModel(self.weights.copy(), self.bias.copy())

    @staticmethod
    def zeros(d_in: int, class_count: int) -> "LinearModel":
        return LinearModel(np.zeros((d_in, class_count)), np.zeros(class_count))


@dataclasses.dataclass
class SoftArgmaxHead:
    """Temperature and class count of the soft-argmax sum_i sigma_i * i
    over indices 1..n; calibration keeps the temperature positive by
    optimizing its log."""

    temperature: float = 1.0
    class_count: int = 2

    def __post_init__(self):
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError("temperature must be positive and finite")
        if self.class_count < 2:
            raise ValueError("need at least two classes")


@dataclasses.dataclass
class TrainConfig:
    """Defaults target the toy linear probe.

    The transformer-scale recipe this mirrors used 5e-6 with AdamW; a
    linear probe wants roughly 100x that, so 5e-4 is the default and the
    small value remains a config choice away.
    """

    learning_rate: float = 5e-4
    batch_size: int = 32
    epochs: int = 100
    noise_std: float = 0.0
    range_penalty_weight: float = 1.0
    logit_radius: float = 2.0
    weight_decay: float = 0.0
    optimizer: str = "sgd"  # "sgd" or "adamw"
    shuffle: bool = True

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size <= 0 or self.epochs < 0:
            raise ValueError("learning_rate, batch_size positive; epochs >= 0")
        if self.noise_std < 0 or self.range_penalty_weight < 0:
            raise ValueError("noise_std and range_penalty_weight must be >= 0")
        if self.optimizer not in ("sgd", "adamw"):
            raise ValueError("optimizer must be sgd or adamw")


@dataclasses.dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or len(self.features) != len(self.labels):
            raise ValueError("features (m, d) and labels (m,) do not line up")
        if len(self.labels) and self.labels.min() < 0:
            raise ValueError("labels must be non-negative class indices")

    def __len__(self) -> int:
        return len(self.labels)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def soft_argmax_value(logits, temperature: float) -> np.ndarray:
    probs = softmax(np.asarray(logits) / temperature)
    idx = np.arange(1, probs.shape[-1] + 1, dtype=np.float64)
    return probs @ idx


def soft_argmax_backward(logits, temperature: float):
    """Analytic gradients of sum_i sigma_i(z/T) * i.

    d/dz_j = (sigma_j / T) * (j - value)   (1-based j)
    d/dT   = -(1/T) * sum_j (z_j / T) * sigma_j * (j - value)
    """
    z = np.asarray(logits, dtype=np.float64)
    probs = softmax(z / temperature)
    idx = np.arange(1, z.shape[-1] + 1, dtype=np.float64)
    value = probs @ idx
    centered_idx = idx - value[..., None] if z.ndim > 1 else idx - value
    grad_z = probs * centered_idx / temperature
    grad_t = -np.sum(z / temperature * probs * centered_idx, axis=-1) / temperature
    return grad_z, grad_t


# ---------------------------------------------------------------------------
# Training with noise injection
# ---------------------------------------------------------------------------

def _loss_and_grads(model, head, x, y, cfg):
    m = len(y)
    logits = model.logits(x)
    probs = softmax(logits / head.temperature)
    nll = -np.mean(np.log(probs[np.arange(m), y] + 1e-300))

    grad_logits = probs.copy()
    grad_logits[np.arange(m), y] -= 1.0
    grad_logits /= m * head.temperature

    centered = logits - logits.mean(axis=1, keepdims=True)
    overflow = np.maximum(0.0, np.abs(centered) - cfg.logit_radius)
    penalty = cfg.range_penalty_weight * np.sum(overflow ** 2) / m
    if cfg.range_penalty_weight > 0:
        g = 2.0 * overflow * np.sign(centered) * cfg.range_penalty_weight / m
        grad_logits = grad_logits + (g - g.mean(axis=1, keepdims=True))

    grad_w = x.T @ grad_logits
    grad_b = grad_logits.sum(axis=0)
    return nll + penalty, grad_w, grad_b


def train_noise_injection(
    model: LinearModel,
    head: SoftArgmaxHead,
    data: Dataset,
    cfg: TrainConfig,
    rng: np.random.Generator,
):
    """Minimize cross-entropy of softmax(logits/T) under feature noise.

    Fresh Gaussian noise (cfg.noise_std) is added to every feature each
    epoch, plus a squared hinge penalty on centered logits escaping
    [-logit_radius, logit_radius]. Returns (trained model, loss history).
    Shuffling and noise use independent child generators, so a zero
    noise_std run takes identical steps to a run with the noise code
    removed entirely.
    """
    if len(data) == 0:
        raise ValueError("empty dataset")
    seeds = rng.spawn(2)
    shuffle_rng, noise_rng = seeds[0], seeds[1]
    model = model.copy()
    history = []
    mom_w = np.zeros_like(model.weights)
    mom_b = np.zeros_like(model.bias)
    vel_w = np.zeros_like(model.weights)
    vel_b = np.zeros_like(model.bias)
    step = 0
    for _ in range(cfg.epochs):
        x = data.features
        if cfg.noise_std > 0:
            x = x + noise_rng.normal(0.0, cfg.noise_std, x.shape)
        order = (
            shuffle_rng.permutation(len(data))
            if cfg.shuffle
            else np.arange(len(data))
        )
        losses = []
        for start in range(0, len(data), cfg.batch_size):
            sel = order[start : start + cfg.batch_size]
            loss, gw, gb = _loss_and_grads(model, head, x[sel], data.labels[sel], cfg)
            losses.append(loss)
            if not math.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss with config {cfg}")
            step += 1
            if cfg.optimizer == "adamw":
                b1, b2, eps = 0.9, 0.999, 1e-8
                mom_w = b1 * mom_w + (1 - b1) * gw
                mom_b = b1 * mom_b + (1 - b1) * gb
                vel_w = b2 * vel_w + (1 - b2) * gw ** 2
                vel_b = b2 * vel_b + (1 - b2) * gb ** 2
                mw = mom_w / (1 - b1 ** step)
                mb = mom_b / (1 - b1 ** step)
                vw = vel_w / (1 - b2 ** step)
                vb = vel_b / (1 - b2 ** step)
                model.weights -= cfg.learning_rate * (
                    mw / (np.sqrt(vw) + eps) + cfg.weight_decay * model.weights
                )
                model.bias -= cfg.learning_rate * mb / (np.sqrt(vb) + eps)
            else:
                model.weights -= cfg.learning_rate * (
                    gw + cfg.weight_decay * model.weights
                )
                model.bias -= cfg.learning_rate * gb
        history.append(float(np.mean(losses)))
    return model, history


def calibrate_temperature(
    model: LinearModel,
    head: SoftArgmaxHead,
    data: Dataset,
    min_temperature: float = 1.0,
) -> SoftArgmaxHead:
    """Phase-two calibration: gradient descent on log T for the NLL of
    softmax(logits/T); the probe itself is never touched.

    min_temperature defaults to 1: the encrypted path divides logits by
    T, so a sub-unit temperature would widen the post-division domain
    past the exp fit's radius (it would also lower entropy, the opposite
    of what the calibration stage is for).
    """
    logits = model.logits(data.features)
    y = data.labels
    m = len(y)
    u_floor = math.log(min_temperature) if min_temperature > 0 else -math.inf
    u = max(math.log(head.temperature), u_floor)
    for _ in range(CALIBRATION_STEPS):
        t = math.exp(u)
        probs = softmax(logits / t)
        expected = np.sum(probs * logits, axis=1)
        grad_t = float(np.mean(logits[np.arange(m), y] - expected)) / (t * t)
        nll = -float(np.mean(np.log(probs[np.arange(m), y] + 1e-300)))
        if not math.isfinite(nll):
            raise TrainingDiverged("non-finite calibration loss")
        u = max(u - CALIBRATION_LR * grad_t * t, u_floor)  # d/du = d/dT * T
    return SoftArgmaxHead(math.exp(u), head.class_count)


# ---------------------------------------------------------------------------
# Encrypted forward pass (column packing, no rotations)
# ---------------------------------------------------------------------------

def head_config(head: SoftArgmaxHead, **knobs) -> SoftmaxConfig:
    """The head's SoftmaxConfig; ``radius``, ``exp_degree`` and
    ``inv_iterations`` default to SoftmaxConfig's own."""
    return SoftmaxConfig(
        temperature=head.temperature, class_count=head.class_count, **knobs
    )


def pipeline_depth(cfg: SoftmaxConfig) -> int:
    """Levels a fresh feature ciphertext needs for linear layer + head; a
    fitted two-class head's linear layer forms u, at no extra level."""
    return approx.soft_argmax_min_levels(cfg) + (cfg.head_fit() is None)


def encrypted_logits(model: LinearModel, feature_cts, classes=None):
    """Per-class logit ciphertexts via plaintext-weight products, for the
    given class indices or all of them.

    feature_cts[j] holds feature j for the whole batch in its slots, so
    each logit is a rotation-free weighted slot sum plus the bias. The
    classes come from one scheme.weighted_sums pass over the features,
    with the weights encoded at the top prime, which each logit's
    rescale divides back out.
    """
    if len(feature_cts) != model.d_in:
        raise ValueError(
            f"{len(feature_cts)} feature ciphertexts for d_in={model.d_in}"
        )
    classes = range(model.class_count) if classes is None else list(classes)
    q_top = float(feature_cts[0].scheme.ring.moduli[feature_cts[0].level])
    sums = scheme.weighted_sums(feature_cts, model.weights[:, classes], q_top)
    return [
        scheme.add_const(scheme.rescale(s), float(model.bias[c]))
        for s, c in zip(sums, classes)
    ]


def _folded_probe(model: LinearModel, temperature: float) -> LinearModel:
    """Probe with logits (z - mean over classes of z) / T: the same softmax
    as z / T, and the zero-mean input the encrypted head expects. Two
    classes get the exact negatives +-(z_1 - z_2) / 2T, so that a fitted
    two-class head can read the first logit alone."""
    w, b = model.weights, model.bias
    if model.class_count == 2:
        d = (w[:, 0] - w[:, 1]) / (2.0 * temperature)
        c = (b[0] - b[1]) / (2.0 * temperature)
        return LinearModel(np.stack((d, -d), axis=1), np.array([c, -c]))
    w = w - w.mean(axis=1, keepdims=True)
    return LinearModel(w / temperature, (b - b.mean()) / temperature)


def forward_encrypted(
    model: LinearModel,
    head: SoftArgmaxHead,
    feature_cts,
    evk: scheme.RelinKey,
    cfg: SoftmaxConfig = None,
    probe_key: scheme.SecretKey = None,
) -> scheme.Ciphertext:
    """Soft-argmax ciphertext for a column-packed batch of samples. A
    given cfg carries the approximation knobs; its temperature and class
    count must be the head's. A fitted two-class head's one-column probe
    emits u = y_1 / R, with R folded in as a temperature factor."""
    if cfg is None:
        cfg = head_config(head)
    elif (cfg.temperature, cfg.class_count) != (head.temperature, head.class_count):
        raise ValueError(f"{cfg} contradicts the head {head}")
    if cfg.head_fit() is None:
        logit_cts = encrypted_logits(_folded_probe(model, cfg.temperature), feature_cts)
        return approx.encrypted_soft_argmax(logit_cts, cfg, evk, probe_key)
    probe = _folded_probe(model, cfg.temperature * cfg.fit_width())
    (u,) = encrypted_logits(probe, feature_cts, classes=[0])
    return approx.fitted_soft_argmax(u, cfg, evk, probe_key)


def encrypt_features(pk: scheme.PublicKey, features, rng: np.random.Generator):
    """Column-pack a (m, d) feature matrix, m <= N/2, into d ciphertexts
    in one pass (scheme.encrypt_columns), as encode and encrypt per
    column would."""
    return scheme.encrypt_columns(pk, features, rng)


def scores_to_classes(scores, class_count: int) -> np.ndarray:
    """Round decoded soft-argmax values to 0-based class labels."""
    if class_count < 2:
        raise ValueError(f"class count {class_count}: a soft-argmax head needs >= 2")
    rounded = np.rint(np.asarray(scores, dtype=np.float64))
    if np.any(np.isnan(rounded)):
        raise ValueError("NaN score has no class")
    # clip in float first: a score beyond the int64 range has no cast
    return np.clip(rounded, 1, class_count).astype(np.int64) - 1


def measured_noise_std(
    keys: scheme.KeyMaterial, rng: np.random.Generator, trials: int = 100
) -> float:
    """Empirical slot-error std of fresh encrypt/decrypt round trips;
    ties the training-time noise injection to actual scheme noise."""
    params = keys.scheme
    errs = []
    for _ in range(trials):
        v = rng.uniform(-1.0, 1.0, params.slot_capacity)
        pt = encoding.encode(v, params.scale, params.ring)
        ct = scheme.encrypt(keys.pk, pt, rng)
        out = scheme.decrypt_to_slots(keys.sk, ct)[: len(v)]
        errs.append(out - v)
    return float(np.std(np.concatenate(errs)))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def compute_metrics(scores, labels) -> dict:
    """Accuracy/precision/recall/F1 on rounded classes, and the AUROC.

    scores are soft-argmax values in [1, 2]; class = round(score) - 1.
    Labels are binary, class 1 the positive class. The AUROC is the
    Mann-Whitney count: the share of (positive, negative) pairs whose
    positive scores higher, a tie counting 1/2.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels length mismatch")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("compute_metrics takes binary labels, 0 or 1")
    pos = labels == 1
    neg = np.sort(scores[~pos])
    n_pos, n_neg = int(pos.sum()), len(neg)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUROC undefined for a single-class label set")
    pred = scores_to_classes(scores, 2)

    accuracy = float(np.mean(pred == labels))
    tp = float(np.sum((pred == 1) & pos))
    fp = float(np.sum((pred == 1) & ~pos))
    fn = float(np.sum((pred == 0) & pos))
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )

    # a positive wins over the negatives below it and half its ties:
    # twice that is the sum of its left and right insertion points
    placed = scores[pos]
    twice_wins = int(
        np.searchsorted(neg, placed, "left").sum()
        + np.searchsorted(neg, placed, "right").sum()
    )
    auroc = twice_wins / 2.0 / (n_pos * n_neg)

    return {
        "accuracy": accuracy,
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "auroc": auroc,
    }


# ---------------------------------------------------------------------------
# Data plumbing
# ---------------------------------------------------------------------------

def two_blob_dataset(
    n_samples: int, d_in: int, rng: np.random.Generator, separation: float = 3.0
) -> Dataset:
    """Linearly separable two-Gaussian toy data, feature scale ~[-1, 1]."""
    center = separation / (2.0 * math.sqrt(d_in))
    spread = 1.0 / math.sqrt(d_in)
    labels = rng.integers(0, 2, n_samples)
    signs = labels * 2 - 1
    feats = rng.normal(0.0, spread, (n_samples, d_in)) + signs[:, None] * center
    return Dataset(np.clip(feats, -1.0, 1.0), labels)
