"""Exception hierarchy for the listcolor package.

Three top-level families matter for the CLI exit codes:

* ``InputError`` covers malformed files and infeasible requests (exit 2),
* ``BoundViolationError`` / ``NotBipartiteError`` cover inputs that do not
  satisfy the guarantee the selected mode needs (exit 1),
* ``InternalAssertionError`` covers conditions the theory rules out; seeing
  one means the implementation is wrong, never the input (exit 3).
"""


class ListColorError(Exception):
    """Base class for every error raised by this package."""


class InputError(ListColorError):
    """Malformed or unusable input (files, parameters)."""


class ParseError(InputError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class MixedListPresenceError(InputError):
    """Some edge lines carry color lists and some do not."""


class TooLargeError(InputError):
    def __init__(self, m: int, limit: int):
        super().__init__(f"instance has {m} edges, exhaustive search capped at {limit}")


class InfeasibleParamsError(InputError):
    """Random-instance parameters that cannot produce any graph."""


class LoopEdgeError(InputError):
    def __init__(self, vertex: int):
        super().__init__(f"loop edge at vertex {vertex}")


class VertexOutOfRangeError(InputError):
    def __init__(self, vertex: int, n: int):
        super().__init__(f"vertex {vertex} out of range [0, {n})")


class NotBipartiteError(ListColorError):
    """koenig mode requested on a graph with no bipartition."""


class BoundViolationError(ListColorError):
    def __init__(self, vertex: int, required: int, actual: int):
        super().__init__(
            f"vertex {vertex}: common colors {actual} below required {required}"
        )
        self.vertex = vertex
        self.required = required
        self.actual = actual


class EdgeNotBlankError(ListColorError):
    """Operation requires an uncolored edge."""


class EdgeBlankError(ListColorError):
    """Operation requires a colored edge."""


class ImproperAssignmentError(ListColorError):
    """Assigning this color would clash with an incident edge."""


class ColorNotInListError(ListColorError):
    """Assigning a color absent from the edge's list."""


class PreconditionViolatedError(ListColorError):
    """Caller broke a documented operation precondition."""


class AvailabilityEmptyError(PreconditionViolatedError):
    """An availability set required to be nonempty is empty."""


# Reasons attached to NotShiftableError.
START_NOT_BLANK = "StartNotBlank"
COLOR_CLASH = "ColorClash"
COLOR_NOT_IN_LIST = "ColorNotInList"


class NotShiftableError(ListColorError):
    def __init__(self, index: int, reason: str):
        super().__init__(f"chain not shiftable at position {index}: {reason}")
        self.index = index
        self.reason = reason


class InternalAssertionError(ListColorError):
    """A condition the theory guarantees failed; indicates a bug here."""


class LemmaViolationError(InternalAssertionError):
    pass


class BetaEmptyError(InternalAssertionError):
    """vizing fan polled an empty working set (provably nonempty)."""


class StepBudgetExceededError(InternalAssertionError):
    """Engine exceeded the step budget implied by the potential bounds."""
