"""Goodness-of-fit metrics for multi-class classifiers.

Build a `ConfusionMatrix` from a count grid or from paired label
sequences, then score it:

    >>> import gofmetrics as gm
    >>> cm = gm.ConfusionMatrix.from_counts([[20, 6, 0], [2, 20, 0], [12, 12, 8]])
    >>> round(gm.generalized_mcc(cm), 6)
    0.225669

`generalized_mcc` extends the two-class Matthews correlation coefficient
to n classes as the determinant of the normalized confusion matrix; the
other scores (generalized F1 / Fowlkes-Mallows, Cramer's phi, one-vs-one
averages, power-mean rates) share the same matrix plumbing.
"""

from . import confusion, means, multiclass
from .confusion import *  # noqa: F401,F403
from .means import *  # noqa: F401,F403
from .multiclass import *  # noqa: F401,F403

__version__ = "0.1.0"

# the public names are each module's own list; none is repeated here
__all__ = [*means.__all__, *confusion.__all__, *multiclass.__all__, "__version__"]
