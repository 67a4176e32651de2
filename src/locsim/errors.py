"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Raised when user-supplied parameters or configuration are invalid."""
