"""Certified-digit pi and arctangent computation from rational alternating
series whose ratios are reciprocal powers of two.

The package re-exports the public names of its three layers, each listed
once in its module's ``__all__``.
"""

from .fixedpoint import *
from .series import *
from .formulas import *

__version__ = "0.1.0"
