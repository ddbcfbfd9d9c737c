"""Exception hierarchy shared by all simulator modules."""


class SimError(Exception):
    """Base class for simulator errors."""


class SchedulingInPast(SimError):
    """An event was scheduled before the current simulation clock."""


class ConfigError(SimError):
    """A configuration value violates a model invariant."""


class ParseError(ConfigError):
    """A config or trace file could not be parsed."""


class ValidationError(ConfigError):
    """A configuration field failed validation.

    `field` is the dotted path of the offending field.
    """

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason


class MalformedTrace(SimError):
    """A trace file or row set cannot be reconstructed into requests."""


class InvalidMetric(SimError):
    """A metric was computed from impossible inputs."""


class EmptyInput(SimError):
    """An aggregate was requested over an empty collection."""
