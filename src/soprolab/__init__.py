"""Decentralized stochastic optimization lab.

Implements the stochastic second-order proximal method over simulated
undirected agent networks, deterministic and first-order reference
algorithms, linear-rate certificates with steady-state error bounds, and a
reproducible experiment harness for l2-regularized logistic regression.
"""

from . import baselines, certificate, harness, loss, optimizer, sparse, topology
from .errors import (
    CertificationError,
    ConfigurationError,
    DivergenceError,
    InvariantViolation,
    ParameterError,
    ParseError,
    SoprolabError,
)

__version__ = "0.1.0"

__all__ = [
    "baselines",
    "certificate",
    "harness",
    "loss",
    "optimizer",
    "sparse",
    "topology",
    "CertificationError",
    "ConfigurationError",
    "DivergenceError",
    "InvariantViolation",
    "ParameterError",
    "ParseError",
    "SoprolabError",
    "__version__",
]
