"""Exception types shared across the package, and the verdict sentinel.

Verdict-style results (UNCOLORABLE, NO_SHORT_CIRCUIT, NO_COLORABLE_CUT) are
falsy ``Sentinel`` return values, not exceptions; see the modules that
produce them.
"""

from __future__ import annotations


class Sentinel:
    """A named verdict that is falsy, so ``bool(result)`` tells a found
    object from a verdict."""

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name

    def __bool__(self) -> bool:
        return False


class ParseError(ValueError):
    """Input text is not valid graph6, sparse6, or cubicmg."""


class NotCubic(ValueError):
    """Some vertex does not have degree exactly 3."""


class LoopEdge(ValueError):
    """A self-loop was encountered; loops are never allowed."""


class HasBridge(ValueError):
    """Operation requires a bridgeless graph."""


class NotDefined(ValueError):
    """Cyclic edge connectivity is not defined for this graph (n < 8)."""


class ImproperColoring(ValueError):
    """An edge coloring is not proper on the given graph."""


class NoPerfectMatching(ValueError):
    """The graph admits no perfect matching."""


class CapExceeded(RuntimeError):
    """An enumeration exceeded its configured cap."""


class OverlapViolation(RuntimeError):
    """Classified pattern occurrences overlap outside the known exception."""


class UnclassifiableP3b(RuntimeError):
    """A P3 occurrence without an admissible boundary pair matches neither
    known boundary configuration; the host violates the reduced-graph
    preconditions the classification relies on."""


class ConstructionFailed(RuntimeError):
    """A family generator could not satisfy its post-conditions."""


class InvalidFactor(ValueError):
    """An edge set is not a 2-factor of the given graph."""


class BridgeCreated(RuntimeError):
    """Internal invariant failure: a reduction step produced a bridge."""


class CertificationError(RuntimeError):
    """A claim the solver is about to certify does not hold.  Raised by the
    check step, never stripped by ``python -O``."""
