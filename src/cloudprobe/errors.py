"""The exceptions cli.main maps to exit codes, free of numpy; model re-exports them."""


class ConfigError(ValueError):
    """Invalid campaign or probe configuration."""


class InsufficientDataError(ValueError):
    """An estimator was asked to divide by an empty trial count."""


class DataError(Exception):
    """A malformed input file other than an attempt log, naming the file."""


class MalformedLogError(ValueError):
    """Structurally invalid attempt log, naming the offending stream position."""

    def __init__(self, vantage, slot, reason: str):
        self.vantage = vantage
        self.slot = slot
        super().__init__(f"malformed attempt log at vantage={vantage} slot={slot}: {reason}")
