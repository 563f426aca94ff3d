"""Exception hierarchy shared across the package."""

from __future__ import annotations


class LqhvError(Exception):
    """Base class for all package errors."""


class InputError(LqhvError, ValueError):
    """Malformed or out-of-contract input (shapes, ranges, file contents)."""


class SignalingError(LqhvError):
    """A family failed the nonsignaling consistency check.

    Carries the offending :class:`~lqhv.scenario.Witness` as ``self.witness``.
    """

    def __init__(self, witness):
        self.witness = witness
        super().__init__(
            f"nonsignaling consistency violated on sites {witness.site_subset} "
            f"at common settings {witness.common_settings}: tuples "
            f"{witness.tuple_a} vs {witness.tuple_b} disagree by "
            f"{witness.max_discrepancy}"
        )


class AtomBudgetError(LqhvError):
    """A resource limit is exceeded: a joint space or LP tableau over its
    budget, or a result entry too long to write as text (an integer past
    the interpreter's digit limit, `sys.get_int_max_str_digits()`)."""


class RepresentationError(LqhvError):
    """A measure or verdict fails to represent the family it claims to.

    Raised when a measure reproduces a joint probability below the
    nonnegativity floor, and when an LHV witness or certificate fails the
    check made before it is returned.
    """
