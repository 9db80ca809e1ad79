"""Exception hierarchy shared by all modules; `shown`, the one way a
message quotes a count or a piece of input; and `refuse_over`, the one check
through which the resource guards refuse, with `capped_power` for counts that
are powers.

Every failure mode has its own class so callers (and the CLI exit-code
mapping) can distinguish parse errors, resource guards, field-size
problems and verification failures.
"""


class TenrankError(Exception):
    """Base class for all library errors."""


class MixedFieldsError(TenrankError):
    """Operands live over different fields."""


class DivisionByZeroError(TenrankError, ZeroDivisionError):
    """Division by the zero element of a field."""


class InfiniteFieldError(TenrankError):
    """An enumeration or exhaustive search was requested over the rationals."""


class FieldTooSmallError(TenrankError):
    """The field does not satisfy a size precondition such as |F| > n."""


class ShapeMismatchError(TenrankError):
    """Matrix or tensor dimensions are incompatible."""


class IndexOutOfRangeError(TenrankError, IndexError):
    """A row, column, slice or direction index is out of range."""


class ResourceGuardError(TenrankError):
    """An operation would exceed a configured resource cap.

    The message names the guard and its bound; guards never truncate
    silently.
    """


class ZeroTensorError(TenrankError):
    """Operation undefined on the zero tensor."""


class ZeroSpanError(TenrankError):
    """Operation undefined on the zero matrix subspace."""


class ZeroMatrixError(TenrankError):
    """Operation undefined on the zero matrix (e.g. pivot of 0)."""


class NotConciseError(TenrankError):
    """A concise tensor was required."""


class NotCubicalError(TenrankError):
    """An n x n x n tensor was required."""


class DegenerateSpanError(TenrankError):
    """A slice span has too small a dimension for the requested operation."""


class NotPivotMatchedError(TenrankError):
    """The pivot-matched condition failed in the given basis."""


class BadParamsError(TenrankError, ValueError):
    """Invalid parameters to a catalog constructor or formula."""


class BadDimsError(TenrankError):
    """Tensor dimensions violate an operation's precondition."""


class PreconditionFailedError(TenrankError):
    """A numeric precondition (e.g. a min-rank threshold) does not hold."""


class VerificationFailedError(TenrankError):
    """A constructed certificate failed its own verification.

    This always indicates a bug, never an expected runtime condition.
    """


class WitnessInvalidError(TenrankError):
    """A caller-supplied witness failed validation."""


class BelowThresholdError(TenrankError):
    """Dimensions are below the threshold the narrow-tensor pipeline needs."""


class ParseError(TenrankError):
    """A tensor, certificate or report file failed to parse."""


class RetryBudgetError(TenrankError):
    """A randomized-with-retry procedure exhausted its retry cap."""


def shown(value) -> str:
    """How a message quotes a count or a piece of input, in a few dozen
    characters whatever its size.  An integer below 10^30 in absolute value
    prints exactly, a larger one as "more than 10^k" ("less than -10^k"), k
    from its bit length in integer arithmetic (30102/100000 < log10 2, so
    10^k < |value|): no integer is too large to print.  A tuple prints item by
    item, as its repr would.  Anything else prints as its repr, cut after 40
    characters and followed by its length when the repr is over 60.  Messages
    call it only when they are raised, so input that parses pays nothing for
    it."""
    if isinstance(value, int):
        if -10**30 < value < 10**30:
            return str(value)
        k = (abs(value).bit_length() - 1) * 30102 // 100000
        return f"more than 10^{k}" if value > 0 else f"less than -10^{k}"
    if isinstance(value, tuple):
        return f"({', '.join(map(shown, value))}{',' * (len(value) == 1)})"
    text = repr(value)
    return text if len(text) <= 60 else f"{text[:40]}... ({len(str(value))} characters)"


def refuse_over(count: int, guard: int, message: str) -> None:
    """Raise ResourceGuardError with `message` when count > guard; the
    message's {count} and {guard} fields print through `shown`."""
    if count > guard:
        raise ResourceGuardError(message.format(count=shown(count), guard=shown(guard)))


def capped_power(base: int, exp: int, guard: int) -> int:
    """base**exp when it is at most guard, else guard + 1: a guard compares a
    power without forming it (for base > 1, an exp past guard's bit length
    is past the guard)."""
    if base > 1 and exp > guard.bit_length():
        return guard + 1
    return min(base**exp, guard + 1)
