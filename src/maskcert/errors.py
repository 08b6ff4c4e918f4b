"""Exception categories shared across the package.

The CLI maps these onto exit codes: ConfigError -> 1, DatasetError (and
OSError) -> 2, numeric failures (FloatingPointError and friends) -> 3, anything
else -> 4.
"""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration input."""


class DatasetError(ValueError):
    """Malformed or missing dataset / checkpoint file content."""
