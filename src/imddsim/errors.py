"""Exception types shared across the simulator."""


class ParameterError(ValueError):
    """An argument violates an operation's stated preconditions.

    ``key`` names the offending config field, when there is one; the message
    then starts with it. ``config_from_dict`` extends the key to the field's
    dotted path in the config (``ffe_taps`` to ``dsp.ffe_taps``).
    """

    def __init__(self, message: str, key: str | None = None):
        super().__init__(f"{key} {message}" if key else message)
        self.key = key
        self.reason = message


class NumericalError(RuntimeError):
    """A numerical procedure failed (ill-conditioning, non-convergence)."""


class SyncError(RuntimeError):
    """Frame synchronization could not locate the preamble."""


class DecodeError(ValueError):
    """Distribution-matcher input is not a valid codeword."""


class NoRateError(ValueError):
    """Measured NGMI is below every threshold in the rate table."""


class StageError(RuntimeError):
    """End-to-end run failed; carries the pipeline stage name."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
