"""The exceptions cli.main maps to exit codes, free of numpy; model re-exports them."""


class ConfigError(ValueError):
    """Invalid campaign or probe configuration."""


class InsufficientDataError(ValueError):
    """An estimator was asked to divide by an empty trial count."""


class DataError(Exception):
    """A malformed input file other than an attempt log, naming the file."""


class ReportError(DataError, ValueError):
    """Fragments reference different inputs or violate the report schema."""


class MalformedLogError(ValueError):
    """Structurally invalid attempt log, naming the offending stream position:
    the file and its line where it was read from one, the vantage and slot
    where the record is known."""

    def __init__(self, vantage, slot, reason: str, path=None, line=None):
        self.vantage = vantage
        self.slot = slot
        where = "".join((f" {path}" if path is not None else "",
                         f" line {line}" if line is not None else "",
                         f" at vantage={vantage} slot={slot}" if vantage is not None else ""))
        super().__init__(f"malformed attempt log{where}: {reason}")
