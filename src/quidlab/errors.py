"""Exception types shared across the package."""


class QuidlabError(Exception):
    """Base class for package errors."""


class CapacityError(QuidlabError):
    """Register size outside the supported range."""


class ShapeError(QuidlabError):
    """Operator or state dimension mismatch."""


class DataFormatError(QuidlabError):
    """Malformed input file: dataset CSV, noise model, checkpoint, config."""


class DataMismatchError(DataFormatError, ShapeError, ValueError):
    """Data that does not fit the model or encoder it meets: a feature count other than the
    model's, a class id outside its classes, or more features than the encoder holds. A data
    error to the CLI (exit 3), which names the file; a ShapeError or ValueError to callers."""


class DegenerateInputError(QuidlabError):
    """Well-formed but meaningless input, e.g. an all-zero amplitude vector."""


class AttackInfeasibleError(QuidlabError):
    """Poisoning cannot proceed, e.g. the clean set holds a single class."""
