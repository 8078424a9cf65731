"""Matrix-free estimation of two-to-infinity and one-to-two operator norms.

The two-to-infinity norm of a matrix is its maximum row l2 norm; the
one-to-two norm is the maximum column l2 norm.  This package estimates
both using only matrix-vector products with ``A`` and ``A^T``, by
locating the largest diagonal entry of the Gram operator ``A A^T``
through seeded stochastic diagonal estimation, with an optional
sketch-and-deflate variance reduction, and then measuring the selected
row's norm exactly.  The benchmark harness in ``twoinf.bench`` (also the
``twoinf-bench`` command) compares the estimators against power-iteration
and diagonal-averaging baselines at matched matvec budgets.
"""

# The four modules are re-exported whole: their __all__ lists are the one
# record of their public names (PEP 8's case for a wildcard import).
from . import estimators, oplib, sketch, synthetic
from .oplib import *  # noqa: F403
from .sketch import *  # noqa: F403
from .estimators import *  # noqa: F403
from .synthetic import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*oplib.__all__, *sketch.__all__, *estimators.__all__, *synthetic.__all__]
