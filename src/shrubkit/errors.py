"""Exception hierarchy shared by the whole package."""


class ShrubError(Exception):
    """Base class for every error raised deliberately by shrubkit."""


class DomainError(ShrubError):
    """An argument is outside an operation's documented domain."""


def _whole(**params):
    """Refuse a parameter that is not an int, such as 1.5 or None; bools pass."""
    for name, value in params.items():
        if not isinstance(value, int):
            raise DomainError(f"{name} must be an integer, got {value!r}")


def _index(value, n):
    """Whether value is an int in 0..n-1, an id among n items; bools pass."""
    return isinstance(value, int) and 0 <= value < n


class ValidationError(ShrubError):
    """A structure (graph, tree, model, file) is malformed."""


class ResourceLimitError(ShrubError):
    """An input exceeds a configured exact-computation cap."""


class FormulaParseError(ShrubError):
    """A formula failed to parse.  Carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SignatureConflict(ShrubError):
    """Two leaf pairs in the same colour/level class disagree on adjacency."""

    def __init__(self, triple, pair_a, pair_b):
        i, j, lvl = triple
        super().__init__(
            f"colour pair ({i},{j}) at level {lvl}: "
            f"pair {pair_a} is an edge but pair {pair_b} is not"
        )
        self.triple = triple
        self.pair_a = pair_a
        self.pair_b = pair_b
