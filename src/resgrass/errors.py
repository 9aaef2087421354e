"""Exceptions and the candidate budget shared across the package."""


class InputError(ValueError):
    """Malformed or mathematically invalid arrangement input."""


class DuplicateHyperplaneError(InputError):
    """Two columns of a realization are proportional over F_p."""


class BudgetError(RuntimeError):
    """A brute-force enumeration would exceed the configured candidate budget."""

    def __init__(self, candidates: int, budget: int, what: str = "enumeration"):
        self.candidates = candidates
        self.budget = budget
        super().__init__(
            f"{what} needs {candidates} candidates, over the budget of {budget}"
            " (pass a larger budget to override)"
        )


DEFAULT_BUDGET = 10_000_000


def check_budget(q: int, m: int, budget: int | None, what: str) -> None:
    """BudgetError when the (q^m - 1)/(q - 1) points of P^{m-1}(F_q) exceed budget.

    A budget of None means DEFAULT_BUDGET.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    candidates = (q**m - 1) // (q - 1)
    if candidates > budget:
        raise BudgetError(candidates, budget, what)
