"""permpat: generalized permutation pattern matching.

The package decides, counts and enumerates matchings of (generalized)
permutation patterns into texts, builds matching instances from
independent-set questions through an auditable three-stage construction,
and cross-checks the matching engines with an independent first-order
model checker.
"""

from . import core, folog, matcher, reduction, textio
from .core import *
from .folog import *
from .matcher import *
from .reduction import *
from .textio import *

__version__ = "0.1.0"

__all__: list[str] = []
__all__ += core.__all__
__all__ += folog.__all__
__all__ += matcher.__all__
__all__ += reduction.__all__
__all__ += textio.__all__
