"""Exception types some caller catches by name.

A file, record or setting the run cannot use is a ``ValueError``, or the
``OSError`` for a path that is missing, a directory or below a file (the
CLI exits 1); ``SchemaViolation`` is the one ``jsonl`` raises for a JSON
input. A failure while the run works is a ``GranaryError`` (exit 2); any
other ``OSError``, such as a full disk, propagates.
"""


class GranaryError(Exception):
    """Base class of the failures a run meets while it works."""


class SchemaViolation(ValueError):
    """A JSON input is not valid UTF-8 or JSON, or has missing, unknown or ill-typed keys."""


class BackendError(GranaryError):
    """A chat-completion backend failed after exhausting retries."""


class EmptyGeneration(GranaryError):
    """The backend returned blank content where text was required."""


class NonFiniteLoss(GranaryError):
    """A loss evaluated to NaN or infinity.

    When raised by the training loop, the partial report accumulated so
    far is attached as the ``report`` attribute.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
