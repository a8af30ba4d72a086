"""Exception hierarchy shared by all titlemap modules.

The CLI maps these onto process exit codes and the `kind` it prints:
ConfigError -> 2 (kind=config); DataError (and subclasses) and
EvaluationError -> 3 (kind=data); NumericError (and subclasses),
ContractError and any other TitlemapError -> 4 (kind=numeric).
"""


class TitlemapError(Exception):
    """Base class for all titlemap failures."""


class ConfigError(TitlemapError):
    """Invalid configuration value, unknown key, or unusable hyperparameter."""


class DataError(TitlemapError):
    """Input data violates a documented contract (bad file, bad record, missing entry)."""


class FormatError(DataError):
    """A file does not match its documented on-disk format."""


class DegenerateInputError(DataError):
    """Input is structurally valid but degenerate (empty title, zero vector, ...)."""


class MissingTitleError(DataError):
    """A required title has no entry in a cache or table."""


class NumericError(TitlemapError):
    """Numeric contract violation (non-finite values, out-of-domain points)."""


class DimensionError(NumericError):
    """Operand shapes are incompatible for the requested operation."""


class DomainError(NumericError):
    """A point lies outside the mathematical domain of an operation."""


class ContractError(TitlemapError):
    """An internal API was called in a way its contract forbids."""


class EvaluationError(TitlemapError):
    """An evaluation cannot be computed from the given inputs (e.g. single-class AUC)."""
