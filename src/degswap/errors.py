"""Exception types and result sentinels shared across the package."""

from __future__ import annotations


class DegSwapError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


class NotGraphical(DegSwapError):
    """The degree sequence pair admits no simple bipartite realization."""


class SwapNotAllowed(DegSwapError):
    """The 2x2 submatrix selected by the swap is not a one-factor."""


class ShapeMismatch(DegSwapError):
    """Operands do not have the same matrix shape."""


class DegreeMismatch(DegSwapError):
    """Operands do not realize the same degree sequence."""


class NonAlternating(DegSwapError):
    """An edge walk that must alternate between the two edge classes does not."""


class CycleMismatch(DegSwapError):
    """The symmetric difference of the two graphs is not the given cycle."""


class DiagonalPosition(DegSwapError):
    """A chord position was expected but a diagonal position was given."""


class SpecViolation(DegSwapError):
    """A matrix does not match the anchored pattern it is claimed to match,
    or a structural guarantee of the path construction failed."""


class PreconditionViolation(DegSwapError):
    """A documented precondition of the path construction does not hold."""


class MarginMismatch(DegSwapError):
    """The integer matrix does not carry realizable row and column sums."""


class PairingMismatch(DegSwapError):
    """The pairing does not belong to the symmetric difference of the pair."""


class TooManyPairings(DegSwapError):
    """The pairing set is larger than the enumeration guard allows."""


class TooLarge(DegSwapError):
    """The state space exceeds the configured enumeration threshold."""


class DegenerateChain(DegSwapError):
    """The transition matrix has a second eigenvalue of 1 (disconnected chain)."""


class NonMixing(DegSwapError):
    """The chain never reaches the requested distance from stationarity."""


class _Capped:
    """A capped search's sentinel: the cap it hit, equal only to a sentinel
    of the same type and cap."""

    def __init__(self, cap: int):
        self.cap = cap

    def __repr__(self) -> str:
        return f"{type(self).__name__}(cap={self.cap})"

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other.cap == self.cap


class Unreachable(_Capped):
    """Sentinel returned by the swap-distance oracle when the cap is hit."""


class Exceeds(_Capped):
    """Sentinel returned by the switch-distance oracle when the cap is hit."""
