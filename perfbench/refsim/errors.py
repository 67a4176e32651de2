"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Raised when user-supplied parameters or configuration are invalid."""


class InvalidStateError(RuntimeError):
    """Raised when a stateful operation is driven outside its legal protocol."""
