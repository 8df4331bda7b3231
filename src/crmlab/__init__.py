"""Counterfactual risk minimization from logged bandit feedback.

Train softmax and Gaussian-weight (mixed logit) policies against logged
(context, action, propensity, reward) records, estimate truncated
importance-weighted risk, compute computable risk bounds, and run the whole
pipeline reproducibly from the command line.

The public names are those in the ``__all__`` of each module below.
"""

from . import bounds, datasets, estimators, learning, policies, seeding, synthetic
from .bounds import *
from .datasets import *
from .estimators import *
from .learning import *
from .policies import *
from .seeding import *
from .synthetic import *

__version__ = "0.1.0"

__all__ = [
    *bounds.__all__,
    *datasets.__all__,
    *estimators.__all__,
    *learning.__all__,
    *policies.__all__,
    *seeding.__all__,
    *synthetic.__all__,
]
