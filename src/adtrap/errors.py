"""Shared exception types, the numeric type tests and parsing, and the hook
that lets a record reject itself."""


class AdtrapError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(AdtrapError):
    """A document or configuration failed validation.

    Carries a JSON-pointer-style location so that command-line users can
    find the offending element in a scenario file; the scenario loader
    prefixes a check's relative pointer as the error passes back out.
    """

    def __init__(self, message: str, pointer: str = ""):
        self.pointer = pointer
        self.message = message
        super().__init__(message)

    def __str__(self) -> str:
        return f"{self.pointer}: {self.message}" if self.pointer else self.message


def quoted(value) -> str:
    """``repr(value)``, cut to 100 characters ending in ``...`` when longer, so
    that a message quoting a huge document value stays short."""
    text = repr(value)
    return text if len(text) <= 100 else text[:97] + "..."


def is_number(value) -> bool:
    """Whether ``value`` is an ``int`` or a ``float``; a ``bool`` is neither here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_integer(value) -> bool:
    """Whether ``value`` is an ``int`` other than a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def digits_to_int(token: str) -> int:
    """The ``int`` an optional ``-`` and ASCII digits spell, cut after 21
    significant digits.

    ``int`` refuses more digits than ``sys.get_int_max_str_digits()``.  A
    cut value is still at least 10**20 in size, beyond any 64-bit integer
    or list index, as the whole one is.
    """
    sign, digits = ("-", token[1:]) if token.startswith("-") else ("", token)
    return int(sign + (digits.lstrip("0")[:21] or "0"))


class SimulationError(AdtrapError):
    """The simulated event stream violated an ordering or state rule."""


class InconsistentObservationsError(AdtrapError):
    """No assignment of audiences to visitors reproduces the observed counters.

    Usually means the modelling assumptions were broken, for example an ad
    that also ran on a site whose visitors do not appear in the analysed log.
    """


def checked(cls):
    """Make every record of the NamedTuple ``cls`` run its ``_check()``, which
    raises to reject it, when built by calling ``cls``, ``_make`` or ``_replace``."""

    def checking(build):
        def built(klass, *args, **kwargs):
            record = build(klass, *args, **kwargs)
            record._check()
            return record

        return built

    cls.__new__ = staticmethod(checking(cls.__new__))
    cls._make = classmethod(checking(cls._make.__func__))
    return cls
