"""Exception hierarchy shared across the package."""


class MvlabError(Exception):
    """Base class for all package-specific errors.

    A function that works on a stack of instances sets `index` to the
    position of the first failing one; it is None otherwise.
    """

    def __init__(self, *args, index: int | None = None):
        super().__init__(*args)
        self.index = index


class DefinitenessError(MvlabError):
    """A matrix required to be positive definite is not."""


class SingularFrontierError(MvlabError):
    """The efficient frontier is degenerate (a*c - b^2 at or below tolerance)."""


class HorizonError(MvlabError):
    """Evaluation time lies outside the investment horizon."""


class DomainError(MvlabError):
    """An input lies outside the mathematical domain of an operation."""


class InstabilityError(MvlabError):
    """A simulation became numerically unstable (e.g. mass absorption)."""


class DataError(MvlabError):
    """Malformed or inconsistent input data."""


class WarmupError(MvlabError):
    """Not enough history to estimate parameters at the requested time."""


class ProtocolError(MvlabError):
    """An input violates a structural protocol (e.g. non-uniform time grid)."""


class LedgerError(MvlabError):
    """A backtest ledger broke the self-financing identity
    bond + stock = wealth beyond its tolerance."""


class ResourceError(MvlabError):
    """A requested computation exceeds configured resource limits."""
