"""Exception types shared across the package."""


class ConiclineError(Exception):
    """Base class for all errors raised by this package."""


class DefinitionContainsTarget(ConiclineError):
    """A generator was defined in terms of itself."""


class MapsNotInverse(ConiclineError):
    """A change of generators whose two maps do not invert each other."""


class StrandMismatch(ConiclineError):
    """A braid was applied to a base with the wrong number of strands."""


class BadBlock(ConiclineError):
    """An invalid strand block [i..j]."""


class NonAdjacentMover(ConiclineError):
    """The moving strand is not adjacent to the block it should circle."""


class UnknownModel(ConiclineError):
    """Requested local model id is not in the catalog."""


class BadPair(ConiclineError):
    """An invalid Lefschetz pair in a monodromy table row."""


class LeadingCoefficientVanishes(ConiclineError):
    """The leading y-coefficient vanishes at the requested x."""


class NoConvergence(ConiclineError):
    """The root solver failed to converge."""


class CollisionOnLoop(ConiclineError):
    """Two fiber roots merged (beyond refinement depth) on the tracking loop."""


class AmbiguousMatching(ConiclineError):
    """Root matching between fibers stayed ambiguous after refinement."""


class BudgetExceeded(ConiclineError):
    """An enumeration was larger than the allowed budget."""


class ScriptStepFailed(ConiclineError):
    """A step of the scripted bigness certificate failed."""

    def __init__(self, step, message=""):
        self.step = step
        super().__init__(f"step {step!r} failed" + (f": {message}" if message else ""))


class ParseError(ConiclineError):
    """Malformed textual input (word, braid, polynomial or table syntax)."""
