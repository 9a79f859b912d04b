"""Exception hierarchy.

Invalid user input raises :class:`InputError` subclasses; solver breakdowns
raise :class:`NumericalError` subclasses.  The command line maps the two
branches to exit codes 1 and 2.
"""

from __future__ import annotations

__all__ = [
    "ChainBsdeError",
    "InputError",
    "NumericalError",
    "DimensionMismatchError",
    "NonFiniteEntryError",
    "NegativeOffDiagonalError",
    "ColumnSumError",
    "EmptyControlSetError",
    "GammaNotCertifiableError",
    "NotCertifiedError",
    "DriverTimeDependentError",
    "UnreachableTargetError",
    "AbsorbedOutsideTargetError",
    "StepTooLargeError",
    "NonFiniteStateError",
    "NoConvergenceError",
    "SingularSystemError",
    "NoFiniteExponentError",
    "PolicyValueMismatchError",
    "BoundViolatedError",
    "DisconnectedNodeError",
]


class ChainBsdeError(Exception):
    """Base class for every error raised by this package."""


class InputError(ChainBsdeError):
    """The caller supplied data that fails a structural precondition."""


class NumericalError(ChainBsdeError):
    """A numerical routine could not deliver a result at the requested tolerance."""


class DimensionMismatchError(InputError):
    def __init__(self, message: str):
        super().__init__(message)


class NonFiniteEntryError(InputError):
    def __init__(self, row: int, col: int):
        super().__init__(f"rate matrix entry ({row}, {col}) is not finite")
        self.row = row
        self.col = col


class NegativeOffDiagonalError(InputError):
    def __init__(self, row: int, col: int, value: float):
        super().__init__(
            f"off-diagonal rate ({row}, {col}) = {value!r} is negative"
        )
        self.row = row
        self.col = col
        self.value = value


class ColumnSumError(InputError):
    def __init__(self, col: int, residual: float):
        super().__init__(
            f"column {col} sums to {residual!r}, beyond the renormalization window "
            "of 1e-9 * max(1, the column's off-diagonal mass)"
        )
        self.col = col
        self.residual = residual


class EmptyControlSetError(InputError):
    def __init__(self):
        super().__init__("control set has no members")


class GammaNotCertifiableError(InputError):
    def __init__(self, message: str):
        super().__init__(message)


class NotCertifiedError(InputError):
    def __init__(self, message: str):
        super().__init__(message)


class DriverTimeDependentError(InputError):
    def __init__(self, what: str):
        super().__init__(
            f"{what} depends on time; the stationary solver and the truncation "
            "sequence require time-independent data (use the backward grid "
            "solver instead)"
        )


class UnreachableTargetError(InputError):
    def __init__(self, states: list[int]):
        names = ", ".join(str(s) for s in states)
        super().__init__(f"target set is unreachable from states [{names}]")
        self.states = list(states)


class AbsorbedOutsideTargetError(NumericalError):
    def __init__(self, state: int, time: float):
        super().__init__(
            f"path absorbed in non-target state {state} at t={time!r} with no horizon"
        )
        self.state = state
        self.time = time


class StepTooLargeError(InputError):
    def __init__(self, step: float, max_rate: float):
        super().__init__(
            f"grid step {step!r} violates step * max|q_ii| <= 0.1 (max rate {max_rate!r})"
        )
        self.step = step
        self.max_rate = max_rate


class NonFiniteStateError(NumericalError):
    def __init__(self, time: float):
        super().__init__(f"backward integration produced a non-finite state near t={time!r}")
        self.time = time


class NoConvergenceError(NumericalError):
    def __init__(self, residual: float, iterations: int):
        super().__init__(
            f"solver stalled at residual {residual!r} after {iterations} iterations"
        )
        self.residual = residual
        self.iterations = iterations


class SingularSystemError(NumericalError):
    def __init__(self, message: str, states: list[int] | None = None):
        super().__init__(message)
        self.states = list(states) if states is not None else []


class NoFiniteExponentError(NumericalError):
    def __init__(self, message: str):
        super().__init__(message)


class PolicyValueMismatchError(NumericalError):
    def __init__(self, max_gap: float, tolerance: float):
        super().__init__(
            f"extracted policy value differs from the optimality-system value by "
            f"{max_gap!r} (> {tolerance!r})"
        )
        self.max_gap = max_gap
        self.tolerance = tolerance


class BoundViolatedError(NumericalError):
    def __init__(self, t: float, state: int, value: float, bound: float):
        super().__init__(
            f"|u({t!r})[{state}]| = {abs(value)!r} exceeds the declared bound {bound!r}"
        )
        self.t = t
        self.state = state
        self.value = value
        self.bound = bound


class DisconnectedNodeError(InputError):
    def __init__(self, nodes: list[str]):
        names = ", ".join(nodes)
        super().__init__(f"nodes [{names}] have no path to any source node")
        self.nodes = list(nodes)
