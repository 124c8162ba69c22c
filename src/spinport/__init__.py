"""Spin-teleportation polarimetry toolkit.

Exact few-qubit protocol math for teleporting a beam spin state onto an
outgoing neutron through a singlet-selected two-proton measurement, plus an
experiment-level model that predicts and Monte Carlo samples the neutron
polarization against a conventional polarization-transfer background.
"""

__version__ = "0.1.0"

from . import bellkit, reaction, spinalg, teleport
from .spinalg import *
from .bellkit import *
from .teleport import *
from .reaction import *

__all__ = ["__version__", *spinalg.__all__, *bellkit.__all__, *teleport.__all__, *reaction.__all__]
