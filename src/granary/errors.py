"""Exception types shared across the pipeline."""


class GranaryError(Exception):
    """Base class for all granary errors."""


class InvalidEncoding(GranaryError):
    """Input bytes are not valid UTF-8."""


class SchemaViolation(GranaryError):
    """A JSON input is not valid JSON, or has missing, unknown or ill-typed keys."""


class BackendError(GranaryError):
    """A chat-completion backend failed after exhausting retries."""


class EmptyGeneration(GranaryError):
    """The backend returned blank content where text was required."""


class RejectedEntry(GranaryError):
    """A rejected distillation entry was used where a kept one is required."""


class OversizedExample(GranaryError):
    """An example cannot fit the maximum sequence length even after truncation."""


class ContextOverflow(GranaryError):
    """A token sequence exceeds the model's context window."""


class EmptyMask(GranaryError):
    """A supervised loss was requested with no mask-true positions."""


class ShapeMismatch(GranaryError):
    """Two arrays that must share a shape do not."""


class NonFiniteLoss(GranaryError):
    """A loss evaluated to NaN or infinity.

    When raised by the training loop, the partial report accumulated so
    far is attached as the ``report`` attribute.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class StaleArtifact(GranaryError):
    """A pipeline stage output was produced under a different configuration."""


class ConfigError(GranaryError, ValueError):
    """A config value no run can take; a ValueError too, since the library
    configs that extend the config sections raise it."""
