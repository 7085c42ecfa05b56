"""Helpers shared by several test modules."""

import tracemalloc

import numpy as np

from hsfusion.solver import _residual_tensors
from hsfusion.tensor import difference


def _tensors(state, problem):
    """The residual tensors of ``state``, from its own differences of a."""
    diffs = (difference(state.a, 1), difference(state.a, 2))
    return _residual_tensors(state, problem, diffs)


def _semi_unitary(rng, rows, cols):
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q * np.sign(np.diagonal(r))


def _misaligned_readonly(a):
    """A read-only copy of a whose data starts 30 bytes into a buffer."""
    raw = bytes(30) + np.ascontiguousarray(a, dtype=float).tobytes()
    view = np.frombuffer(raw, dtype=float, offset=30).reshape(np.shape(a))
    assert not view.flags.aligned and not view.flags.writeable
    return view


def _traced_peak(fn, *args, **kwargs):
    """fn's result and the peak bytes that tracemalloc saw allocated during the call."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
