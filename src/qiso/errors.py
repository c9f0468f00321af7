"""Exception types shared across modules."""


class QisoError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(QisoError):
    pass


class ShapeMismatch(QisoError):
    pass
