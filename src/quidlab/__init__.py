"""Poisoning lab for density-matrix quantum classifiers.

Core pieces: a dense density-matrix simulator with after-gate noise channels,
angle/amplitude feature encoders, parameterized-circuit templates, an
SPSA-trained hybrid classifier, encoder-state-similarity metrics with
min-distance labeling, max-distance label-flip poisoning plus baselines, a
partition-vote defense, and a seeded experiment CLI.
"""

__version__ = "0.1.0"

from .data import LabeledDataset, load_csv, save_csv, split, synth_clusters
from .defense import EnsembleModel, partition, train_ensemble, vote
from .encode import EncoderConfig, encode_batch, scale_features
from .errors import (
    AttackInfeasibleError,
    CapacityError,
    DataFormatError,
    DegenerateInputError,
    QuidlabError,
    ShapeError,
)
from .ess import EssReport, distance, validate_ess
from .noise import NoiseModel, amplitude_damping, depolarizing, load_noise_model
from .pqc import PqcTemplate, build_template
from .poison import (
    PoisonOutcome,
    PoisonSpec,
    apply_poison,
    bilevel_random,
    quid_poison,
    random_flip,
)
from .qnn import (
    QnnModel,
    TrainConfig,
    TrainReport,
    evaluate,
    forward,
    init_model,
    load_model,
    save_model,
    spsa_estimate,
    train,
)
from .simcore import DensityMatrix, GateOp, KrausChannel
