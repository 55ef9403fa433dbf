"""Exception types shared across the toolkit.

DataError covers everything a user can fix by changing inputs (files,
configs, datasets). The CLI maps it to exit code 2; anything else that
escapes is an internal error (exit 3).
"""


class DataError(Exception):
    """Invalid user-supplied data or configuration."""


class VocabError(DataError):
    """Malformed vocabulary file."""


class ConfigError(DataError):
    """Invalid or incompatible configuration."""


class DatasetError(DataError):
    """Malformed or inconsistent dataset."""


class InputError(DataError, ValueError):
    """Token ids or a sequence length that a model or vocabulary cannot take."""


class CheckpointError(DataError):
    """Unreadable, truncated, or inconsistent checkpoint file."""


class SheetError(DataError):
    """Malformed evaluation sheet or key file."""


class NonFiniteLossError(DataError):
    """A training loss came out NaN or infinite."""
