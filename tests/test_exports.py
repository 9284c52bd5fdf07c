"""The package's public names are pinned: adding or removing an export is a
deliberate edit of EXPORTS here, never a side effect of a refactor."""

import ast
import importlib
import inspect
import os

import quidlab
from quidlab.simcore import DensityMatrix

INIT_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "src", "quidlab", "__init__.py")

EXPORTS = sorted([
    # data
    "LabeledDataset", "load_csv", "save_csv", "split", "synth_clusters",
    # defense
    "EnsembleModel", "partition", "train_ensemble", "vote",
    # encode
    "EncoderConfig", "encode_batch", "scale_features",
    # errors
    "AttackInfeasibleError", "CapacityError", "DataFormatError", "DegenerateInputError",
    "QuidlabError", "ShapeError",
    # ess
    "EssReport", "distance", "validate_ess",
    # noise
    "NoiseModel", "amplitude_damping", "depolarizing", "load_noise_model",
    # pqc
    "PqcTemplate", "build_template",
    # poison
    "PoisonOutcome", "PoisonSpec", "apply_poison", "bilevel_random", "quid_poison",
    "random_flip",
    # qnn
    "QnnModel", "TrainConfig", "TrainReport", "evaluate", "forward",
    "init_model", "load_model", "save_model", "spsa_estimate", "train",
    # simcore
    "DensityMatrix", "GateOp", "KrausChannel",
])

# the single-state wrappers of the batched simulation API, the gradient front ends that
# duplicated the one training step (qnn._step_gradient), the ESS, template-file, loss and
# poison-split front ends that no run called, and the defense config that
# train_ensemble's arguments replace, removed from the library
REMOVED = {
    "defense": ("DefenseConfig",),
    "poison": ("split_poison_set",),
    "simcore": ("ground_state", "basis_state", "apply_gate", "apply_channel", "expect_z",
                "sample_expect_z"),
    "noise": ("noisy_apply",),
    "pqc": ("apply_pqc", "save_template", "load_template"),
    "encode": ("encode",),
    "qnn": ("spsa_gradient", "_spsa_pair", "head_gradient", "cross_entropy"),
    "ess": ("nearest_class_label", "compare_encodings", "EncodingCell", "encoder_label"),
}


def _exported_names():
    """Every name that an import in quidlab/__init__.py binds."""
    with open(INIT_PATH, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return sorted(alias.asname or alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) for alias in node.names)


def test_exports_are_the_pinned_list():
    assert _exported_names() == EXPORTS
    for name in EXPORTS:
        assert not inspect.ismodule(getattr(quidlab, name)), name


def test_removed_names_resolve_nowhere():
    for module, names in REMOVED.items():
        mod = importlib.import_module(f"quidlab.{module}")
        for name in names:
            assert not hasattr(mod, name), f"quidlab.{module}.{name}"
            if name != "encode":  # quidlab.encode names the submodule
                assert not hasattr(quidlab, name), f"quidlab.{name}"
    assert inspect.ismodule(quidlab.encode)
    assert not hasattr(DensityMatrix, "copy")
