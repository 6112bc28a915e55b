"""Exception types shared across the package."""


class RepairChainError(Exception):
    """Base class for all library errors."""


class InvalidSpec(RepairChainError):
    """A jump-model spec violates the validity constraints."""


class OutOfRadius(RepairChainError):
    """An evaluation point lies outside the domain where G is finite."""


class NotTransient(RepairChainError):
    """Operation requires a transient chain."""


class NotNullRecurrent(RepairChainError):
    """Operation requires a null-recurrent chain."""


class NotPositiveRecurrent(RepairChainError):
    """Operation requires a positive-recurrent chain."""
