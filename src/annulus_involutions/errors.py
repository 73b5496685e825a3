"""Exception hierarchy shared across the toolkit."""


class ExpressionError(ValueError):
    """Problem in a field or section expression; carries a byte offset."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (offset {offset})"
        super().__init__(message)
        self.offset = offset


class LexicalError(ExpressionError):
    pass


class ParseError(ExpressionError):
    pass


class UnknownFunctionError(ParseError):
    pass


class UnknownVariableError(ParseError):
    pass


class DomainError(ArithmeticError):
    """Evaluation left the real domain (log of non-positive, 1/0, NaN result)."""


class FlowError(RuntimeError):
    """Base class for integration failures."""


class StepLimitExceeded(FlowError):
    pass


class DomainEscape(FlowError):
    """Trajectory left the field's declared working domain."""


class EventNotFound(FlowError):
    """No requested crossing before the time horizon."""


class CycleError(RuntimeError):
    """Base class for cycle-detection failures."""


class NotACycle(CycleError):
    pass


class CriticalPointError(CycleError):
    pass


class SectionError(RuntimeError):
    """Base class for section validation failures."""


class TransversalityError(SectionError):
    pass


class NotASection(SectionError):
    """The curve meets some cycle more than once per period."""


class ConfigError(ValueError):
    pass


# Known numerical failure modes of one sample evaluation.  Per-sample loops
# record these and go on; any other exception is a bug and propagates.
SAMPLE_FAILURES = (FlowError, CycleError, SectionError, DomainError)
