"""Exception types shared across the package, and how an input file is read
(:func:`reads_file`, :func:`read_lines`)."""

import functools


class SoprolabError(Exception):
    """Base class for all package errors."""


class ParameterError(SoprolabError, ValueError):
    """An argument is outside its documented range or infeasible."""


class ParseError(SoprolabError, ValueError):
    """A malformed input file, named by ``path`` (see :func:`reads_file`).

    ``str()`` is ``line N: message`` when the 1-based ``line`` is known.
    """

    def __init__(self, message, line=None):
        self.line = line
        self.path = None
        super().__init__(message if line is None else f"line {line}: {message}")


class ConfigurationError(SoprolabError, ValueError):
    """A run configuration violates a hard requirement (e.g. mu too small)."""


class InvariantViolation(SoprolabError, RuntimeError):
    """A structural invariant that should hold by construction was broken."""


class CertificationError(SoprolabError, RuntimeError):
    """No valid convergence certificate exists for the given parameters."""


class DivergenceError(SoprolabError, ArithmeticError):
    """A run produced a non-finite iterate or metric, or an optimality error
    above ``harness.experiment.BLOW_UP`` max(its round-0 value, 1).

    The message names the round (also kept as ``round``) and, for an
    iterate, the agent.
    """

    def __init__(self, message, round=None):
        self.round = round
        super().__init__(message)


def reads_file(read):
    """A :class:`ParseError` that ``read`` raises carries ``path``, its first argument."""

    @functools.wraps(read)
    def reader(path, *args, **kwargs):
        try:
            return read(path, *args, **kwargs)
        except ParseError as exc:
            exc.path = path
            raise

    return reader


def read_lines(path):
    """``(number, text)`` of each line of the UTF-8 file at ``path`` that
    holds more than a comment: lines end at ``\\n`` alone, ``#`` starts a
    comment anywhere, and ``text`` is what precedes it, stripped.  A line
    that is not UTF-8 is refused at its first byte that does not decode."""
    with open(path, "rb") as f:
        data = f.read()
    for number, raw in enumerate(data.split(b"\n"), start=1):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"invalid UTF-8 byte {raw[exc.start]:#04x}", line=number) from None
        if text := text.split("#", 1)[0].strip():
            yield number, text
