"""Exact workbench for greedy list scheduling on identical machines.

The package provides exact a + b*sqrt(2) arithmetic, an online scheduler
with full placement traces, an exact optimal-makespan oracle, generators
for adversarial job families, and a harness that measures competitive
ratios against the greedy 2 - 1/m guarantee.
"""

from . import families, harness, model, online, oracle
from .families import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .online import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = ["__version__"]
__all__ += model.__all__
__all__ += online.__all__
__all__ += oracle.__all__
__all__ += families.__all__
__all__ += harness.__all__
