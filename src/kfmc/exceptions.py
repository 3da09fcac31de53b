"""Exception types shared across the solvers."""
from __future__ import annotations


class NumericalError(RuntimeError):
    """A solver produced non-finite values or a factorization failed.

    Carries whatever partial state was valid when the failure occurred so
    callers can inspect or save it (the CLI dumps the partial trace before
    exiting with code 3).
    """

    def __init__(self, message, *, model=None, trace=None, sample_index=None):
        super().__init__(message)
        self.model = model
        self.trace = trace
        self.sample_index = sample_index
