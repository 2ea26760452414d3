"""Exception types shared across the package."""


class SoprolabError(Exception):
    """Base class for all package errors."""


class ParameterError(SoprolabError, ValueError):
    """An argument is outside its documented range or infeasible."""


class ParseError(SoprolabError, ValueError):
    """Malformed input data.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


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
