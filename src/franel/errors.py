"""Exception types shared across the package."""

from __future__ import annotations


class FranelError(Exception):
    """Base class for package-specific errors."""


class ExactDivisionError(FranelError):
    """An exact polynomial division left a remainder."""


class NonInvertibleSeriesError(FranelError):
    """Series inversion attempted on a series whose constant term is not 1."""


class PoleError(FranelError):
    """Evaluation of a rational function hit a zero denominator."""


class TelescoperNotFoundError(FranelError):
    """No telescoping operator exists up to the requested order.

    Carries the list of orders that were attempted.
    """

    def __init__(self, orders_tried):
        self.orders_tried = tuple(orders_tried)
        super().__init__(
            "no telescoping operator found at orders %s" % (self.orders_tried,)
        )


class DocumentError(FranelError):
    """An operator document failed schema validation or parsing, or could
    not be built."""
