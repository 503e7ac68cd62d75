"""Exception hierarchy shared across the engine."""


class GraphMemError(Exception):
    """Base class for all engine-raised errors."""


class StateError(GraphMemError):
    """An operation does not fit the memory it was applied to.

    Raised for archiving or boundary-checking an empty buffer, a verdict
    split past the buffer, and an exhausted id counter.
    """


class CorruptionError(GraphMemError):
    """A persisted snapshot failed an integrity invariant.

    The message names the violated invariant so corrupt files are
    diagnosable without a debugger.
    """

    def __init__(self, invariant: str, detail: str = ""):
        self.invariant = invariant
        super().__init__(f"{invariant}: {detail}" if detail else invariant)


class ProviderError(GraphMemError):
    """A model provider failed after exhausting its internal retries."""


class ProviderTransportError(ProviderError):
    """Network-level provider failure; the call may be retried."""


class ProviderParseError(ProviderError):
    """Provider output did not match the expected schema after one repair."""


class ConsolidationError(GraphMemError):
    """A consolidation transaction aborted; the snapshot is unchanged."""
