"""Dense d-way tensors and their products; the brute-force oracle layer.

Values are stored in C order, which matches the package's last-index-fastest
multi-index convention.
"""

import numpy as np

from .indexing import check_shape
from .limits import check_dense


class DenseTensor:
    """Explicit d-way real array with 1-based element access.

    Construction enforces the dense element-count cap and finiteness;
    instances are immutable.
    """

    def __init__(self, values, copy=True):
        values = np.array(values, dtype=float, copy=copy)
        if values.ndim < 1:
            values = values.reshape(1)
        check_shape(values.shape)
        check_dense(values.size)
        if not np.all(np.isfinite(values)):
            raise ValueError("dense tensor contains non-finite values")
        values.setflags(write=False)
        self.values = values

    @property
    def shape(self):
        return self.values.shape

    @property
    def size(self):
        return self.values.size

    def norm(self):
        return float(np.linalg.norm(self.values))

    def __repr__(self):
        return f"DenseTensor(shape={self.shape})"


def hadamard_dense(y, z):
    """Elementwise product of two equal-shape dense tensors."""
    if y.shape != z.shape:
        raise ValueError(f"shape mismatch {y.shape} vs {z.shape}")
    return DenseTensor(y.values * z.values, copy=False)


def brute_force_max(x):
    """Exhaustive maximum of a dense tensor.

    Returns ``(value, index)`` with a 1-based multi-index; ties break toward
    the first index in multi-index order.
    """
    flat = int(np.argmax(x.values))
    idx = np.unravel_index(flat, x.shape)
    return float(x.values[idx]), tuple(int(i) + 1 for i in idx)
