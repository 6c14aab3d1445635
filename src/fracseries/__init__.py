"""Series-based fractional calculus.

Taylor data in, closed-form fractional power series out: memory
integrals and derivatives of both common definitions, their bridge
identity, product rules (including the corrected one with its
compensation series), formal Laplace transforms with singularity
diagnosis, and an independent quadrature oracle.

The public names are those of each module's ``__all__``.
"""

from .series import *
from .special import *
from .operators import *
from .leibniz import *
from .laplace import *
from .quadrature import *
from .grammar import *
from . import grammar, laplace, leibniz, operators, quadrature, series, special

__version__ = "0.1.0"

__all__ = [name for module in (series, special, operators, leibniz, laplace, quadrature, grammar)
           for name in module.__all__]
