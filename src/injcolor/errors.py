"""The common base of the package's runtime failures."""


class InjcolorError(Exception):
    """A construction, round limit, witness search or budget gave up.

    Each concrete error also keeps its builtin base (RuntimeError), so
    existing handlers still match; the CLI maps this base to exit code 1.
    """
