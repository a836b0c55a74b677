"""Exception hierarchy.

Three branches matter to callers: InvalidParameter (bad user input, CLI
exit 2), BudgetError (an enumeration would exceed its budget, CLI exit 3),
and InternalCheckError (a self-check that must never fail did, CLI exit 4).
"""


class QlrcError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameter(QlrcError):
    """Caller-supplied parameters are outside the supported domain."""


class NonPrimeCharacteristic(InvalidParameter):
    pass


class ReducibleModulus(InvalidParameter):
    pass


class NotPrimitive(InvalidParameter):
    pass


class FieldMismatch(InvalidParameter):
    pass


class DivisionByZero(InvalidParameter, ZeroDivisionError):
    pass


class EmptyInput(InvalidParameter):
    pass


class LengthMismatch(InvalidParameter):
    pass


class NotSubcode(InvalidParameter):
    pass


class DivisibilityViolated(InvalidParameter):
    pass


class ParamRangeViolated(InvalidParameter):
    pass


class NotDualContaining(InvalidParameter):
    pass


class ZeroLocality(InvalidParameter):
    pass


class NonPositiveK(InvalidParameter):
    pass


class WeightTooSmall(InvalidParameter):
    pass


class NotLocallyRecoverable(InvalidParameter):
    """Exhaustive search proved no valid repair set exists."""


class HypothesisViolated(InvalidParameter):
    """An instance fed to a theorem checker fails the theorem's hypotheses."""


class BudgetError(QlrcError):
    """An exact enumeration was refused because it would exceed its budget."""


class BudgetExceeded(BudgetError):
    pass


class SearchBudgetExceeded(BudgetError):
    pass


class InternalCheckError(QlrcError):
    """A consistency assertion failed; indicates a bug, never bad input."""


class InjectivityViolated(InternalCheckError):
    pass


class DualityViolated(InternalCheckError):
    pass


class AssertionFailed(InternalCheckError):
    pass
