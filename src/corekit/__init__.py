"""corekit: independence structure of finite simple graphs.

Exact computation of the independence number, matching number, core, corona,
ker and critical difference, structural shortcuts for unicyclic graphs, graph
corpora (exhaustive and seeded-random), and mechanically checked statements
relating all of the above.

The package re-exports the public names of its nine modules. Each module's
``__all__`` is the one list of its public names; the package's ``__all__``
joins them and adds ``__version__``.
"""

from . import budgets, corpus, critical, errors, graph, independence, matching, theorems, unicyclic
from .budgets import *
from .corpus import *
from .critical import *
from .errors import *
from .graph import *
from .independence import *
from .matching import *
from .theorems import *
from .unicyclic import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (budgets, corpus, critical, errors, graph, independence, matching, theorems,
                   unicyclic)
    for name in module.__all__
] + ["__version__"]
