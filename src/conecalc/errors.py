"""Exception types shared across the package."""


class CalcError(Exception):
    """Base class for everything this package raises on purpose.

    ``field`` is the path of the value the message is about, when one is
    named ('rank', 'bundles[0].hn[0][1]'); the text then reads
    'field: message'.
    """

    def __init__(self, message, reasons=None, field=None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.message = message
        self.field = field
        # machine-readable reason list, surfaced by the CLI under --json
        self.reasons = tuple(reasons) if reasons is not None else (str(message),)

    def at(self, path):
        """The same error seen from one record further out: ``path`` leads to
        the field it names, or to the value itself; the reasons stay."""
        field = path if self.field is None else f"{path}.{self.field}"
        return type(self)(self.message, self.reasons, field)


class InputError(CalcError):
    """Invalid caller-supplied data: presets, ladders, classes, expressions."""


class InternalError(CalcError):
    """An internal invariant failed. Indicates a bug, never bad input."""
