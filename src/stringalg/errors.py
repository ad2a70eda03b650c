"""Exception hierarchy for the workbench."""


class StringAlgError(Exception):
    """Base class for all workbench errors."""


class ParseError(StringAlgError):
    """Malformed presentation / module / word text.

    Carries a 1-based line and column when they are known.
    """

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + loc)


class CompositionError(StringAlgError):
    """Two walks or arrows were combined but their endpoints do not match."""


class NotFiniteDimensionalError(StringAlgError):
    """The presented algebra is infinite dimensional; carries a witness cycle."""

    def __init__(self, cycle: tuple[str, ...]):
        self.cycle = cycle
        super().__init__(
            "algebra is infinite dimensional; relation-free cycle: " + " ".join(cycle)
        )


class NonStringPresentationError(StringAlgError):
    """An operation that needs the string axioms was given a presentation violating them."""


class InfiniteTypeError(StringAlgError):
    """Finite-type enumeration was requested but a band exists; carries the witness."""

    def __init__(self, band_witness):
        self.band_witness = band_witness
        super().__init__(f"presentation has infinite representation type; band: {band_witness}")


class CatalogError(StringAlgError):
    """The indecomposable catalog is incomplete or inconsistent for the request."""


class VerificationError(Exception):
    """An internal certificate (exactness, defect identity, ...) failed to verify.

    This signals a bug in the construction, not a mathematical outcome or a
    usage error, so it is not a StringAlgError; the command line exits with
    code 3 on it.
    """
