"""The mode-shuffled non-convex correlated TV, the prior the solver minimizes.

``nms_tctv`` is the regularizer the solver minimizes: for each spatial mode n
it measures the mode-(3-n) non-convex pseudo nuclear norm of the mode-n
gradient tensor, so low-rankness and smoothness are encoded jointly and
cross-mode ("mode-shuffled"). That pairing is written here only, as
``_to_norm_layout`` (``mode_shuffle(t, 3 - n)``) and its inverse
``_from_norm_layout``; the solver's g_n prox and KKT check use them too.
"""

from .tensor import difference, mode_shuffle, mode_unshuffle
from .tsvd import ntpnn


def _to_norm_layout(t, n):
    """t, shaped like the mode-n gradient, in the layout its NTPNN reads:
    mode 3 - n rotated into the tube position."""
    return mode_shuffle(t, 3 - n)


def _from_norm_layout(t, n):
    """Exact inverse of :func:`_to_norm_layout` with the same n."""
    return mode_unshuffle(t, 3 - n)


def nms_tctv(a, psi, grads=None):
    """Mode-shuffled non-convex correlated TV.

    Averages, over the two spatial modes, the mode-(3-n) NTPNN of the mode-n
    gradient tensor (mode-2 norm on the mode-1 gradient and vice versa).
    ``grads`` are the mode-1 and mode-2 gradient tensors of ``a`` when the
    caller already has them.
    """
    if grads is None:
        grads = (difference(a, 1), difference(a, 2))
    return 0.5 * sum(ntpnn(_to_norm_layout(g, n), psi) for n, g in enumerate(grads, 1))
