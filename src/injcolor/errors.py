"""The common base of the package's runtime failures, the budget error of the
oracles and the size-bounded builders, and the invalid-coloring error."""


class InjcolorError(Exception):
    """A construction, round limit, witness search or budget gave up.

    Each concrete error also keeps its builtin base (RuntimeError), so
    existing handlers still match; the CLI maps this base to exit code 1.
    """


class BudgetExceededError(RuntimeError, InjcolorError):
    """An exhaustive search, check or build would exceed its size, order or time budget."""


class InvalidColoringError(ValueError):
    """A supplied coloring violates the contract the operation relies on."""
