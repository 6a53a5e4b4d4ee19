"""Exception taxonomy shared by all modules.

The split matters for scripting: the CLI maps InputError to exit code 1 and
NumericError to exit code 2, while analysis outcomes (controllable or not,
feasible or not) always exit 0.
"""

__all__ = [
    "NNSControlError",
    "InputError",
    "NumericError",
    "NotInConeError",
    "NoFeasibleSparsityError",
]


class NNSControlError(Exception):
    """Base class for all package errors."""


class InputError(NNSControlError, ValueError):
    """Malformed or out-of-contract input: bad shapes, non-finite entries,
    ragged arrays, sparsity level outside [1, m], combinatorial guards."""


class NumericError(NNSControlError, RuntimeError):
    """A numerical procedure failed: eigenvalue iteration, the cone solver's
    iteration guard, inconsistent rank sequences. Results are not
    trustworthy."""


class NotInConeError(NNSControlError):
    """The target vector is provably outside the positive span, as opposed
    to the solver having failed."""


class NoFeasibleSparsityError(NNSControlError):
    """No sparsity level in [1, m] can make the system controllable because
    the nullity of the state matrix exceeds the input dimension."""
