"""Hybrid quantum classifier: encode -> PQC -> per-qubit <Z> -> linear head.

Quantum parameters train with SPSA two-point gradient estimates; the linear
head trains with exact softmax cross-entropy gradients. One Adam updates both
groups as one vector.

The readout is in the Heisenberg picture, in the Pauli basis: _encode hands
pqc._pull_back the real Pauli forms of the encoders' factored stacks
(quidlab.encode), converted once per encode. Each Z_q is pulled back over its
light cone only and contracted with the cone's factors, so pqc1 reads 2x2 forms
against per-qubit angle states; only a cone that spans the whole register
(pqc6) expands it. The pull-back follows a readout plan cached per template,
noise model and factor widths, and takes a stack of parameter points at once.
The Schrodinger path (pqc.apply_pqc_stack) remains the test oracle.

Every entry point that takes features, here and in defense, checks and
encodes them through one gate, _encode.

The one training step, _step_gradient, draws the SPSA direction delta, then pulls
back theta, theta + c*delta and theta - c*delta as one three-point stack: row 0
gives the batch loss and the head's exact gradient, rows 1 and 2 the SPSA
difference through spsa_estimate, which takes both points as one stack. The
generator draws delta, then the base, plus and minus points' shots (no shots when
shots is 0); the order is the same for every shot count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .data import LabeledDataset, class_ids, read_json, write_json
from .encode import EncoderConfig, _encode_factors, _feature_matrix, _rows
from .errors import DataFormatError
from .noise import NoiseModel
from .pqc import PqcTemplate, _pull_back, _readout_factors
from .simcore import finite, sample_shots, whole

# Not called here; perfbench/spans.py installs its timing wrappers on these
# attributes of quidlab.qnn, so they stay importable from this module.
from .encode import encode_batch  # noqa: F401
from .pqc import apply_pqc_stack  # noqa: F401
from .simcore import expect_z_stack  # noqa: F401

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

PROB_FLOOR = 1e-12
SPSA_C = 0.01  # SPSA perturbation size


@dataclass
class QnnModel:
    encoder: EncoderConfig
    template: PqcTemplate
    theta: np.ndarray
    head_weights: np.ndarray  # (n_classes, n_qubits)
    head_bias: np.ndarray  # (n_classes,)
    n_classes: int
    n_features: int | None = None  # feature count the model is built for; None when unknown

    def __post_init__(self):
        self.n_classes = whole(self.n_classes, "n_classes", 1)
        if self.n_features is not None:
            self.n_features = whole(self.n_features, "n_features", 1)
        for name, shape in (("theta", (self.template.param_count,)),
                            ("head_weights", (self.n_classes, self.encoder.n_qubits)),
                            ("head_bias", (self.n_classes,))):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != shape:
                raise ValueError(f"{name} has shape {value.shape}, not {shape}")
            if not np.isfinite(value).all():
                raise ValueError(f"{name} has a non-finite entry")
            setattr(self, name, value)
        if self.encoder.n_qubits != self.template.n_qubits:
            raise ValueError("encoder and template disagree on register size")
        if self.n_features is not None and self.n_features > self.encoder.capacity():
            raise ValueError(f"{self.n_features} features do not fit the encoder's capacity "
                             f"of {self.encoder.capacity()}")

    def copy(self) -> "QnnModel":
        return replace(self, theta=self.theta.copy(), head_weights=self.head_weights.copy(),
                       head_bias=self.head_bias.copy())


def init_model(
    encoder: EncoderConfig, template: PqcTemplate, n_classes: int, seed: int = 0,
    n_features: int | None = None,
) -> QnnModel:
    """Random quantum parameters in [-pi, pi); zeroed head for a uniform cold start."""
    n_classes = whole(n_classes, "n_classes", 1)
    rng = np.random.Generator(np.random.PCG64(seed))
    theta = rng.uniform(-np.pi, np.pi, size=template.param_count)
    return QnnModel(
        encoder=encoder,
        template=template,
        theta=theta,
        head_weights=np.zeros((n_classes, encoder.n_qubits)),
        head_bias=np.zeros(n_classes),
        n_classes=n_classes,
        n_features=n_features,
    )


@dataclass
class TrainConfig:
    epochs: int = 30
    learning_rate: float = 0.01
    batch_size: int = 32
    seed: int = 0
    noise: NoiseModel | None = None
    shots: int = 0  # 0: analytic expectations

    def __post_init__(self):
        for name, low in (("epochs", 0), ("batch_size", 1), ("shots", 0), ("seed", 0)):
            setattr(self, name, whole(getattr(self, name), name, low))
        self.learning_rate = finite(self.learning_rate, "learning_rate")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class TrainReport:
    train_loss: list[float]
    test_loss: list[float]
    test_accuracy: list[float]
    model: QnnModel
    wall_seconds: float


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _batch_ce(probs: np.ndarray, labels: np.ndarray) -> float:
    picked = probs[np.arange(len(labels)), labels]
    # np.mean's own sum-then-divide, without its per-call overhead; a (P, rows) sum along
    # the rows would not round as each row's sum does
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).sum() / len(labels))


def _forward_from_states(
    model: QnnModel,
    states: tuple,
    theta: np.ndarray,
    noise: NoiseModel | None,
    shots: int,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, np.ndarray]:
    """(probs, z) for already-encoded states in Pauli form (_encode) under parameters theta.

    theta is one point (param_count,) or a (P, param_count) stack; a stack gives
    results with a leading point axis, and draws the shots point by point.
    """
    z = sample_shots(_pull_back(states, model.template, theta, noise), shots, rng)
    logits = z @ model.head_weights.T + model.head_bias
    return softmax(logits), z


def forward(
    model: QnnModel,
    x: np.ndarray,
    noise: NoiseModel | None = None,
    shots: int = 0,
    seed: int = 0,
) -> np.ndarray:
    """Class probabilities for one (already scaled) feature vector."""
    [(states, _)] = _encode(model, noise, (_one_row(x), None))
    rng = np.random.Generator(np.random.PCG64(seed))
    probs, _ = _forward_from_states(model, states, model.theta, noise, shots, rng)
    return probs[0]


def _one_row(x) -> np.ndarray:
    """One feature vector as a (1, d) batch; refuses any shape but (d,) or (1, d)."""
    x = np.asarray(x, dtype=float)
    if x.shape not in ((x.size,), (1, x.size)):
        raise ValueError(f"expected one feature vector, (d,) or (1, d), got shape {x.shape}")
    return x.reshape(1, -1)


def spsa_estimate(loss_pair, theta: np.ndarray, c: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Two-point simultaneous-perturbation gradient estimate (Spall, IEEE TAC 37(3), 1992):
    (plus - minus) / (2c) * delta for a Rademacher direction delta (its own elementwise
    inverse), where loss_pair maps the (2, ...) stack of theta + c*delta and theta - c*delta
    to the losses (plus, minus) as one batch."""
    delta = rng.integers(0, 2, size=np.shape(theta)) * 2.0 - 1.0
    plus, minus = loss_pair(theta + c * np.stack([delta, -delta]))
    return (plus - minus) / (2.0 * c) * delta


def _encode(model: QnnModel, noise: NoiseModel | None, *sets) -> list:
    """The model-input gate: per (X, labels or None) set, (X's states in Pauli form as
    pqc._readout_factors gives them, int64 labels or None).

    Checks every set before it encodes any. Refuses an X that encode._feature_matrix
    refuses (empty, or more than two axes), a width other than n_features (None:
    unknown) and labels that data.class_ids refuses for X's rows and the model's
    n_classes, each with ValueError.
    """
    checked = []
    for X, labels in sets:
        X = _feature_matrix(X)
        if model.n_features is not None and X.shape[1] != model.n_features:
            raise ValueError(f"model is built for {model.n_features} features, "
                             f"the data has {X.shape[1]}")
        if labels is not None:
            labels = class_ids(labels, X.shape[0], model.n_classes, "the model's")
        checked.append((X, labels))
    return [(_readout_factors(_encode_factors(X, model.encoder, noise), model.template), labels)
            for X, labels in checked]


def _head_grads_from(probs: np.ndarray, z: np.ndarray, y: np.ndarray) -> tuple:
    dlogits = probs.copy()
    dlogits[np.arange(len(y)), y] -= 1.0
    dlogits /= len(y)
    return dlogits.T @ z, dlogits.sum(axis=0)


class _Adam:
    def __init__(self, shape, lr: float):
        self.lr = lr
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0

    def step(self, param: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = ADAM_BETA1 * self.m + (1 - ADAM_BETA1) * grad
        self.v = ADAM_BETA2 * self.v + (1 - ADAM_BETA2) * grad**2
        m_hat = self.m / (1 - ADAM_BETA1**self.t)
        v_hat = self.v / (1 - ADAM_BETA2**self.t)
        return param - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def train(
    model: QnnModel,
    train_set: LabeledDataset,
    test_set: LabeledDataset,
    config: TrainConfig,
) -> TrainReport:
    """Mini-batch training: SPSA for theta, exact gradients for the head, Adam for both.

    Both gradients are evaluated at the pre-update parameters of each batch,
    then all parameters step together. Fully deterministic given config.seed.
    """
    (train_states, train_labels), (test_states, test_labels) = _encode(
        model, config.noise, (train_set.features, train_set.labels),
        (test_set.features, test_set.labels))
    return _fit(model, train_states, train_labels, test_states, test_labels, config)


def _step_gradient(model, states, labels, config: TrainConfig, rng) -> tuple[float, np.ndarray]:
    """(batch mean cross-entropy at theta, gradient of (theta, head weights, head bias) as
    one vector): SPSA for theta, exact for the head, from one three-point pull-back."""
    base = []

    def step_loss(pair):
        probs, z = _forward_from_states(model, states, np.concatenate([model.theta[None], pair]),
                                        config.noise, config.shots, rng)
        base.append((probs[0], z[0]))
        return _batch_ce(probs[1], labels), _batch_ce(probs[2], labels)

    grad_theta = spsa_estimate(step_loss, model.theta, SPSA_C, rng)
    [(probs, z)] = base
    grad_w, grad_b = _head_grads_from(probs, z, labels)
    return _batch_ce(probs, labels), np.concatenate([grad_theta, grad_w.ravel(), grad_b])


def _fit(model, train_states, train_labels, test_states, test_labels, config) -> TrainReport:
    """train() on factored, already-encoded states; the encoder has no trainable parameters."""
    started = time.perf_counter()
    model = model.copy()
    rng = np.random.Generator(np.random.PCG64(config.seed))
    params = np.concatenate([model.theta, model.head_weights.ravel(), model.head_bias])
    theta_end = model.theta.size
    weights_end = theta_end + model.head_weights.size
    adam = _Adam(params.shape, config.learning_rate)  # elementwise: one Adam per group alike

    train_loss: list[float] = []
    test_loss: list[float] = []
    test_accuracy: list[float] = []
    n = len(train_labels)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        batch_losses = []
        for lo in range(0, n, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            loss, grad = _step_gradient(model, _rows(train_states, idx), train_labels[idx],
                                        config, rng)
            batch_losses.append(loss)
            params = adam.step(params, grad)
            model.theta, model.head_bias = params[:theta_end], params[weights_end:]
            model.head_weights = params[theta_end:weights_end].reshape(model.head_weights.shape)
        train_loss.append(float(np.mean(batch_losses)))
        acc, loss = _evaluate_states(
            model, test_states, test_labels, config.noise, config.shots, rng
        )
        test_loss.append(loss)
        test_accuracy.append(acc)
    return TrainReport(
        train_loss=train_loss,
        test_loss=test_loss,
        test_accuracy=test_accuracy,
        model=model,
        wall_seconds=time.perf_counter() - started,
    )


def _evaluate_states(model, states, labels, noise, shots, rng) -> tuple[float, float]:
    """(accuracy, mean cross-entropy) of factored, already-encoded states at the model's theta."""
    probs, _ = _forward_from_states(model, states, model.theta, noise, shots, rng)
    predicted = np.argmax(probs, axis=1)  # ties resolve to the smallest class
    return float(np.mean(predicted == labels)), _batch_ce(probs, labels)


def evaluate(
    model: QnnModel,
    dataset: LabeledDataset,
    noise: NoiseModel | None = None,
    shots: int = 0,
    seed: int = 0,
) -> tuple[float, float]:
    """(accuracy, mean cross-entropy) over a dataset."""
    [(states, labels)] = _encode(model, noise, (dataset.features, dataset.labels))
    rng = np.random.Generator(np.random.PCG64(seed))
    return _evaluate_states(model, states, labels, noise, shots, rng)


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_VERSION = 2  # 2 added n_features; version-1 files load with n_features None


def save_model(model: QnnModel, path, seed: int | None = None) -> None:
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "encoder": {
            "kind": model.encoder.kind,
            "n_qubits": model.encoder.n_qubits,
            "features_per_qubit": model.encoder.features_per_qubit,
            "scale_range": list(model.encoder.scale_range),
        },
        "template": model.template.to_json(),
        "theta": model.theta.tolist(),
        "head_weights": model.head_weights.tolist(),
        "head_bias": model.head_bias.tolist(),
        "n_classes": model.n_classes,
        "n_features": model.n_features,
        "seed": seed,
    }
    write_json(path, payload)


def load_model(path) -> QnnModel:
    """Read a checkpoint; any malformed content raises DataFormatError."""
    raw = read_json(path)
    version = raw.get("format_version")
    if version not in (1, CHECKPOINT_VERSION):
        raise DataFormatError(f"{path}: unsupported checkpoint version {version!r}")
    try:
        enc = raw["encoder"]
        encoder = EncoderConfig(
            kind=enc["kind"],
            n_qubits=enc["n_qubits"],
            features_per_qubit=enc["features_per_qubit"],
            scale_range=enc["scale_range"],
        )
        return QnnModel(
            encoder=encoder,
            template=PqcTemplate.from_json(raw["template"]),
            theta=raw["theta"],
            head_weights=raw["head_weights"],
            head_bias=raw["head_bias"],
            n_classes=raw["n_classes"],
            n_features=None if version == 1 else raw["n_features"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed checkpoint ({exc!r})") from exc
