"""Exception types shared across the package."""


class InvalidSpec(ValueError):
    """A sequence spec contains a parameter with modulus <= 40."""


class PerturbationTooLarge(ValueError):
    """|x| >= r, so the perturbed sequence could leave {|l| > 40}."""


class DomainError(ValueError):
    """A point lies outside the domain an operation requires."""


class DepthLimit(RuntimeError):
    """Requested pullback depth exceeds the configured cap."""


class BracketFailure(RuntimeError):
    """Root-finding bracket endpoints do not straddle zero."""


class UnreachableTolerance(ValueError):
    """A root-finding tolerance is below the float resolution of the function rooted."""


class ResolutionError(ValueError):
    """Box-counting scale below the point cloud's resolution bound."""


class SandwichViolation(AssertionError):
    """The finite-depth perturbation inequality failed; implementation bug.

    Carries the offending (n, word) so the failure can be reproduced.
    """

    def __init__(self, n: int, word: str, detail: str = ""):
        self.n = n
        self.word = word
        super().__init__(f"sandwich inequality violated at n={n}, word={word!r} {detail}")
