"""Exception types shared across the package."""

__all__ = [
    "BlochDynError", "CollinearInput", "DegenerateOrbit", "GroundState", "LinearlyDependent",
    "NonphysicalOutput", "NormViolation", "NotReachable", "OverlapNotReal", "RadiusMismatch",
    "TruncationTooSmall",
]

# Largest photon-number mass a Fock cutoff may leave outside the basis
# (cavity.TAIL_LIMIT); kept here so TruncationTooSmall's message quotes it.
TAIL_LIMIT = 1e-10


class BlochDynError(Exception):
    """Base class for all domain errors raised by this package."""


class NormViolation(BlochDynError):
    """Bloch vector lies outside the closed unit ball."""


class NotReachable(BlochDynError):
    """No evolution time reaches the requested error level on this orbit."""


class DegenerateOrbit(BlochDynError):
    """The state commutes with the generator, so the orbit is a single point."""


class GroundState(BlochDynError):
    """Mean energy above the ground state vanishes; the bound diverges."""


class RadiusMismatch(BlochDynError):
    """No unitary connects Bloch vectors of different length."""


class CollinearInput(BlochDynError):
    """Distinct collinear Bloch vectors do not select a rotation plane."""


class OverlapNotReal(BlochDynError):
    """The two-state construction requires a real overlap."""


class LinearlyDependent(BlochDynError):
    """Input states are numerically proportional."""


class TruncationTooSmall(BlochDynError):
    """Fock cutoff leaves too much photon-number mass outside the basis."""

    def __init__(self, tail: float, detail: str = ""):
        self.tail = float(tail)
        msg = f"truncation tail mass {self.tail:.3e} exceeds the {TAIL_LIMIT:g} budget"
        if detail:
            msg = f"{msg} ({detail})"
        super().__init__(msg)


class NonphysicalOutput(BlochDynError):
    """A reduced state failed physicality checks beyond tolerance."""
