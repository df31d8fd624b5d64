"""Dense tensor values with an explicit precision tag.

Tensors are immutable carriers of numeric data. NaN and infinity are valid
element values at this layer; only the oracles judge them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

MAX_RANK = 4
_F32, _F64 = np.dtype(np.float32), np.dtype(np.float64)


class Precision(enum.Enum):
    SINGLE = "single"
    DOUBLE = "double"

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float32) if self is Precision.SINGLE else np.dtype(np.float64)

    @staticmethod
    def of_dtype(dtype) -> "Precision":
        dtype = np.dtype(dtype)
        if dtype == np.float32:
            return Precision.SINGLE
        if dtype == np.float64:
            return Precision.DOUBLE
        raise ValueError(f"unsupported dtype {dtype}")


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

    @staticmethod
    def of(values, precision: Precision = Precision.DOUBLE) -> "Tensor":
        return Tensor(np.asarray(values, dtype=precision.dtype))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def precision(self) -> Precision:
        return Precision.of_dtype(self.data.dtype)

    @property
    def elements(self) -> np.ndarray:
        """Flat row-major view of the element values."""
        return self.data.reshape(-1)

    @property
    def size(self) -> int:
        return self.data.size

    def astype(self, precision: Precision) -> "Tensor":
        if self.precision is precision:
            return self
        return Tensor(self.data.astype(precision.dtype))

    def tolist(self):
        return self.data.tolist()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, precision={self.precision.value}, data={self.data.tolist()})"
