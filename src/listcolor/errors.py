"""Exception hierarchy for the listcolor package.

Eight classes, one per way a caller handles a failure; the CLI maps them
to exit codes:

* ``InputError`` and its subclass ``ParseError`` (which keeps ``line_no``
  and ``reason``) cover malformed files and infeasible requests (exit 2);
* ``BoundViolationError`` (which keeps ``vertex``, ``required`` and
  ``actual``) and ``NotBipartiteError`` cover inputs that do not satisfy
  the guarantee the selected mode needs (exit 1);
* ``InternalAssertionError`` covers conditions the theory rules out;
  seeing one means the implementation is wrong, never the input (exit 3);
* ``PreconditionViolatedError`` and ``NotShiftableError`` (which keeps
  ``index`` and ``reason``) report a library call that broke an
  operation's precondition; raised inside ``color`` they, too, mean a bug
  here (exit 3);
* ``ListColorError`` is the base of all of them.
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


class PreconditionViolatedError(ListColorError):
    """Caller broke a documented operation precondition: an edge id out of
    range, an edge that must be blank is colored or the reverse, a color
    absent from the edge's list or clashing at an end, or an empty
    availability set."""


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
