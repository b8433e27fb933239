"""Exception types shared across the package."""


class BeliefRevError(Exception):
    """Base class for the errors this package raises on bad input. Misuse of
    the API, such as an edge to an unknown node or a valuation of the wrong
    length, raises a plain :class:`ValueError` instead."""


class FormulaSyntaxError(BeliefRevError):
    """Malformed formula text; carries a 1-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownAtomError(BeliefRevError):
    """An atom occurs that is not part of the declared signature."""

    def __init__(self, atom: str):
        super().__init__(f"unknown atom {atom!r}")
        self.atom = atom


class SignatureError(BeliefRevError, ValueError):
    """An atom list that is empty or has an invalid, reserved or repeated name."""


class SignatureTooLargeError(BeliefRevError):
    """Signature exceeds the exhaustive-enumeration bound."""


class ModelInvariantError(BeliefRevError):
    """A preference model violates reflexivity, transitivity, or well-foundedness."""


class WorldSetMismatchError(BeliefRevError):
    """Two models that must share worlds and valuations do not."""


class GraphSelfLoopError(BeliefRevError):
    """A priority graph declares a node strictly preferred to itself."""

    def __init__(self, node: str):
        super().__init__(f"self-loop on node {node!r}")
        self.node = node


class GraphCycleError(BeliefRevError):
    """The strict preference order of a priority graph contains a cycle."""

    def __init__(self, cycle: tuple[str, ...]):
        path = " < ".join(cycle)
        super().__init__(f"preference cycle: {path}")
        self.cycle = cycle


class NotRepresentableError(BeliefRevError):
    """Model cannot be induced by any priority graph.

    Worlds sharing a valuation are always tied in an induced order, so a
    model that orders equal-valuation worlds asymmetrically has no graph.
    """

    def __init__(self, world_a: str, world_b: str):
        super().__init__(
            f"worlds {world_a!r} and {world_b!r} share a valuation but are "
            "not symmetrically related; no priority graph induces this model"
        )
        self.pair = (world_a, world_b)


class ResourceBoundError(BeliefRevError):
    """A request exceeds a bound of the package: an exhaustive sweep beyond
    its configured bounds, a formula nested too deeply to evaluate, or a
    model file with more worlds than it may declare."""


class FileFormatError(BeliefRevError):
    """Malformed graph or model file; carries a 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
