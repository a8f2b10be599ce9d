"""Qubit distinguishability times: exact orbit crossings, speed-limit
bounds, time-optimal rotations, and qubit-cavity sweeps.

The package root re-exports each module's ``__all__``.
"""

from . import bloch, brachistochrone, cavity, errors, speedlimits
from .bloch import *
from .brachistochrone import *
from .cavity import *
from .errors import *
from .speedlimits import *

__version__ = "0.1.0"

__all__ = []
__all__ += bloch.__all__
__all__ += brachistochrone.__all__
__all__ += cavity.__all__
__all__ += errors.__all__
__all__ += speedlimits.__all__
