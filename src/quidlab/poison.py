"""Training-set attacks: max-distance label flipping and baselines.

The max-distance attack relabels each poisoned sample with the class whose
clean encoded states are on average farthest from it in the chosen matrix
distance. Baselines: uniform random label flipping, and bi-level random
poisoning (random features, then max-distance labels for those features).
The training set size never changes and clean samples stay bit-identical.
Each attack refuses a PoisonSpec whose mode names another attack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import LabeledDataset, write_table
from .encode import EncoderConfig, _encode_factors
from .errors import AttackInfeasibleError
from .ess import canonical_metric, class_mean_distances
from .noise import NoiseModel
from .simcore import finite, whole

# Not called here; perfbench/spans.py installs its timing wrapper on this
# attribute of quidlab.poison, so it stays importable from this module.
from .encode import encode_batch  # noqa: F401

MODES = ("quid", "random_flip", "bilevel_random")


@dataclass(frozen=True)
class PoisonSpec:
    epsilon: float
    mode: str = "quid"
    metric: str = "frobenius"
    seed: int = 0
    noise: NoiseModel | None = None

    def __post_init__(self):
        object.__setattr__(self, "epsilon", finite(self.epsilon, "epsilon", 0, 1))
        object.__setattr__(self, "seed", whole(self.seed, "seed", 0))
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        canonical_metric(self.metric)


@dataclass
class PoisonOutcome:
    dataset: LabeledDataset
    poisoned_indices: np.ndarray = field(repr=False)
    old_labels: np.ndarray = field(repr=False)
    new_labels: np.ndarray = field(repr=False)

    def flip_count(self) -> int:
        return int(np.sum(self.old_labels != self.new_labels))


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _draw_poison_set(n: int, epsilon: float, rng: np.random.Generator):
    """(clean, poison) sorted index sets from one permutation drawn from rng."""
    m = _round_half_up(epsilon * n)
    perm = rng.permutation(n)
    return np.sort(perm[m:]), np.sort(perm[:m])


def _poisoned(dataset: LabeledDataset, spec: PoisonSpec, mode: str, relabel) -> PoisonOutcome:
    """Draw the poison set, then relabel it with relabel(out, clean_idx, poison_idx, rng).

    Refuses a spec for an attack other than mode. The generator seeded by spec.seed
    draws the poison set first (_draw_poison_set), so every attack poisons the same
    set for the same epsilon and seed; relabel keeps drawing from it and may
    overwrite out's poisoned features. It is not called when the poison set is empty.
    """
    if spec.mode != mode:
        raise ValueError(f"the {mode} attack got a spec for mode {spec.mode!r}")
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    clean_idx, poison_idx = _draw_poison_set(len(dataset), spec.epsilon, rng)
    out = dataset.replace()
    old = dataset.labels[poison_idx].copy()
    new = relabel(out, clean_idx, poison_idx, rng) if poison_idx.size else old.copy()
    out.labels[poison_idx] = new
    return PoisonOutcome(out, poison_idx, old, new)


def _max_distance_labels(
    clean_features: np.ndarray,
    clean_labels: np.ndarray,
    poison_features: np.ndarray,
    cfg: EncoderConfig,
    metric: str,
    model: NoiseModel | None,
) -> np.ndarray:
    """Per poisoned sample: the clean class with the largest mean state distance."""
    if np.unique(clean_labels).size < 2:
        raise AttackInfeasibleError(
            "clean set holds a single class; max-distance relabeling is meaningless"
        )
    clean_states = _encode_factors(clean_features, cfg, model)
    poison_states = _encode_factors(poison_features, cfg, model)
    means, classes = class_mean_distances(poison_states, clean_states, clean_labels, metric)
    return classes[np.argmax(means, axis=1)]  # first max: ties go to the smallest id


def quid_poison(
    dataset: LabeledDataset, spec: PoisonSpec, cfg: EncoderConfig
) -> PoisonOutcome:
    """Max-distance label flipping on a random epsilon fraction of the dataset."""

    def relabel(out, clean_idx, poison_idx, rng):
        return _max_distance_labels(
            dataset.features[clean_idx], dataset.labels[clean_idx],
            out.features[poison_idx], cfg, spec.metric, spec.noise,
        )

    return _poisoned(dataset, spec, "quid", relabel)


def random_flip(dataset: LabeledDataset, spec: PoisonSpec) -> PoisonOutcome:
    """Uniform random relabeling (never the original label) of the poison set."""
    if dataset.n_classes < 2:
        raise AttackInfeasibleError("random flipping needs at least 2 classes")

    def relabel(out, clean_idx, poison_idx, rng):
        draws = rng.integers(0, dataset.n_classes - 1, size=poison_idx.size)
        return draws + (draws >= dataset.labels[poison_idx])  # skip the original label

    return _poisoned(dataset, spec, "random_flip", relabel)


def bilevel_random(
    dataset: LabeledDataset, spec: PoisonSpec, cfg: EncoderConfig
) -> PoisonOutcome:
    """Replace poisoned features with uniform draws, then relabel by max distance."""

    def relabel(out, clean_idx, poison_idx, rng):
        lo, hi = cfg.scale_range
        out.features[poison_idx] = rng.uniform(lo, hi, size=(poison_idx.size, dataset.dim))
        return _max_distance_labels(
            dataset.features[clean_idx], dataset.labels[clean_idx],
            out.features[poison_idx], cfg, spec.metric, spec.noise,
        )

    return _poisoned(dataset, spec, "bilevel_random", relabel)


def apply_poison(
    dataset: LabeledDataset, spec: PoisonSpec, cfg: EncoderConfig
) -> PoisonOutcome:
    if spec.mode == "quid":
        return quid_poison(dataset, spec, cfg)
    if spec.mode == "random_flip":
        return random_flip(dataset, spec)
    return bilevel_random(dataset, spec, cfg)


def write_outcome_csv(outcome: PoisonOutcome, path) -> None:
    """One row per sample: index, old_label, new_label, was_poisoned."""
    idx = outcome.poisoned_indices
    old, new = outcome.dataset.labels.copy(), outcome.dataset.labels.copy()
    old[idx], new[idx] = outcome.old_labels, outcome.new_labels
    flag = np.zeros(old.size, dtype=np.int64)
    flag[idx] = 1
    write_table(path, ["index", "old_label", "new_label", "was_poisoned"],
                zip(range(old.size), old.tolist(), new.tolist(), flag.tolist()))
