"""Exception hierarchy shared by all modules."""


class IcsimError(Exception):
    """Base class for all package-specific errors."""


class ZeroMassAtom(IcsimError):
    """A density was requested at a point of zero probability."""


class MismatchedSupport(IcsimError):
    """Two distributions do not live on the same support universe."""


class OutOfRange(IcsimError):
    """A numeric argument fell outside its admissible range."""


class AlphabetMismatch(IcsimError):
    """A protocol and a source disagree on the input alphabets."""


class SupportViolation(IcsimError):
    """A conditional law places mass where its conditioning event has none."""


class TailMassViolated(IcsimError):
    """Declared spectrum intervals leak more mass than was budgeted."""


class InfeasibleBudget(IcsimError):
    """A communication budget cannot meet the requested error target."""


class ZeroVariance(IcsimError):
    """A second-order prediction was requested for a degenerate spectrum."""


class ParameterRange(IcsimError):
    """A bound evaluator was called with parameters outside its domain."""


class TooLarge(IcsimError):
    """An instance is too large to build or enumerate: an allocation over
    ``BYTES_CAP`` (see :func:`check_bytes`), or an exact enumeration over
    its row cap."""


#: most bytes any one build may allocate at its peak: engine 4 runs send-x
#: over dsbs^11 (about 1.1 GiB of round views) and refuses dsbs^12 (4.6 GiB)
BYTES_CAP = 1 << 31


def check_bytes(nbytes: int, what: str) -> None:
    """Raise TooLarge, before ``what`` is built, when its price ``nbytes``
    (the peak bytes of its build) passes ``BYTES_CAP``."""
    if nbytes > BYTES_CAP:
        raise TooLarge(f"{what} needs {nbytes / 2 ** 20:,.0f} MiB, over the "
                       f"{BYTES_CAP >> 20:,} MiB cap")
