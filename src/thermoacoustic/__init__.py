"""Desk-scale 1D coupled thermo-acoustics.

A finite-difference library for the coupled system of the Westervelt
pressure equation and the Pennes bioheat equation under the Cattaneo flux
law, with per-step fixed-point decoupling, a full set of energy and
dissipation diagnostics, non-degeneracy guarding, and a relaxation-limit
study against the Fourier reference.
"""

from .acoustics import *
from .config import *
from .coupling import *
from .energy import *
from .grid import *
from .heat import *
from .model import *

__version__ = "0.1.0"
