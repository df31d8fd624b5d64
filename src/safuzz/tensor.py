"""The value type a caller outside the package may hand to the pipeline.

Inside the package every value is a plain float32 or float64 numpy array, and
its dtype is its precision. A Tensor validates a value once, on the way in,
and numpy reads it like an array (np.array(t, dtype)). NaN and infinity are
valid element values at this layer; only the oracles judge them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_RANK = 4
_F32, _F64 = np.dtype(np.float32), np.dtype(np.float64)


@dataclass(frozen=True, eq=False)
class Tensor:
    """Immutable dense array, row-major, rank <= 4, float32 or float64."""

    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.array(self.data, order="C", copy=True)
        if arr.dtype != _F32 and arr.dtype != _F64:
            arr = arr.astype(np.float64)
        if arr.ndim > MAX_RANK:
            raise ValueError(f"rank {arr.ndim} exceeds maximum {MAX_RANK}")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    def __array__(self, dtype=None, copy=None):
        return self.data.astype(self.data.dtype if dtype is None else dtype)
