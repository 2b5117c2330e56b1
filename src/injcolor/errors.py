"""The common base of the package's runtime failures, and the budget error
shared by the exact oracles and the full-graph builder."""


class InjcolorError(Exception):
    """A construction, round limit, witness search or budget gave up.

    Each concrete error also keeps its builtin base (RuntimeError), so
    existing handlers still match; the CLI maps this base to exit code 1.
    """


class BudgetExceededError(RuntimeError, InjcolorError):
    """An exhaustive search or check would exceed its size, order or time budget."""
