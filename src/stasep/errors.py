"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A numeric parameter is outside its admissible range."""


class DomainError(ValueError):
    """A lattice index or function argument is outside the supported domain."""


class FrameError(ValueError):
    """A scaling frame is too small to host the requested scaled coordinates."""


class RefusalError(RuntimeError):
    """A computation was refused because its preconditions make it meaningless
    (size caps, degenerate configurations, empty inputs)."""


class AccuracyError(RuntimeError):
    """The limit law cannot vouch for a value: the kernel needs more
    quadrature nodes than N_CAP, or F came out outside the alarm band."""


class InvertibilityError(RuntimeError):
    """The discretized Fredholm determinant came out non-positive.

    The continuum determinant is provably positive, so this signals a
    discretization failure rather than mathematics."""


class WindowError(RuntimeError):
    """A simulated particle left the declared lattice window."""
