"""Controllability of discrete-time linear systems under nonnegative sparse inputs.

Library and CLI that decide whether x_k = A x_{k-1} + B u_k can be steered
between arbitrary states using inputs with at most s nonzero entries, all
nonnegative. Produces verdicts, machine-checkable uncontrollability
certificates, minimum sparsity levels, the supporting zero-eigenvalue
decomposition, and an independent brute-force oracle for cross-validation.

The package exports exactly the ``__all__`` of its library modules.
"""

__version__ = "0.1.0"

from .errors import *  # noqa: F401,F403
from .matrixcore import *  # noqa: F401,F403
from .conelp import *  # noqa: F401,F403
from .controllability import *  # noqa: F401,F403
from .jordan import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .generators import *  # noqa: F401,F403
from .systemio import *  # noqa: F401,F403

from . import conelp, controllability, errors, generators, jordan, matrixcore, oracle, systemio

__all__ = ["__version__"] + [
    name
    for module in (errors, matrixcore, conelp, controllability, jordan, oracle, generators, systemio)
    for name in module.__all__
]
