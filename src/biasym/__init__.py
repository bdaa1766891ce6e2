"""Blind interference alignment supersymbols for multi-user MISO channels.

Construct preset-mode switching patterns (flat or grouping based), verify
their alignment numerically on simulated block-fading channels, evaluate
exact degrees of freedom, and search grouping configurations under a
supersymbol length budget.
"""

from . import dof, patterns, search, signal
from .patterns import *  # noqa: F403
from .dof import *  # noqa: F403
from .signal import *  # noqa: F403
from .search import *  # noqa: F403

__all__ = [*patterns.__all__, *dof.__all__, *signal.__all__, *search.__all__]

__version__ = "0.1.0"
