"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Raised when an input value violates a documented precondition."""


class ContractError(RuntimeError):
    """Raised when an operation is invoked on a state it is not defined for,
    e.g. a polarization-only operation on a state with an unmeasured probe,
    or a second probe activated while one is active."""
