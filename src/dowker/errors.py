"""Shared exception types."""


class ParseError(ValueError):
    """Malformed textual input. Carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class SizeCapError(RuntimeError):
    """A size cap is exceeded: simplex enumeration would list more
    simplices than the cap, `betti_gf2` is asked (through `max_dim`) for
    more Betti numbers than the cap, or `dowker gen` is asked for a fixture
    whose vertex-toplex incidence count exceeds the cap."""
