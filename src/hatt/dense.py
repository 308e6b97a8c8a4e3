"""Dense d-way tensors and their products; the brute-force oracle layer.

Values are stored in C order, which matches the package's last-index-fastest
multi-index convention.
"""

import math

import numpy as np

from .indexing import check_shape
from .limits import check_dense


class DenseTensor:
    """Explicit d-way real array, held as a read-only float64 ``values``.

    Construction copies `values` and enforces the dense element-count cap
    and finiteness; instances are immutable.
    """

    def __init__(self, values):
        self._own(np.array(values, dtype=float))

    @classmethod
    def _adopt(cls, values):
        """A tensor of a fresh float array the package computed: checked and frozen, not copied."""
        tensor = cls.__new__(cls)
        tensor._own(values)
        return tensor

    def _own(self, values):
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
        return _frobenius_norm(self.values)

    def __repr__(self):
        return f"DenseTensor(shape={self.shape})"


@np.errstate(over="ignore")  # an overflowing norm is rescaled below
def _frobenius_norm(values):
    """Frobenius norm of an array, finite wherever the norm is representable.

    ``np.linalg.norm`` squares the entries, so finite entries past about
    1e154 overflow it; only then is the array rescaled by a power of two
    and its norm taken again, so a representable norm of squares
    takes one pass.  An array holding an inf has norm inf, one holding a
    NaN NaN.
    """
    norm = float(np.linalg.norm(values))
    if norm == math.inf:
        shift = int(np.frexp(np.max(np.abs(values)))[1])
        norm = float(np.ldexp(np.linalg.norm(np.ldexp(values, -shift)), shift))
    return norm


@np.errstate(over="ignore")  # an overflow is DenseTensor's ValueError
def hadamard_dense(y, z):
    """Elementwise product of two equal-shape dense tensors."""
    if y.shape != z.shape:
        raise ValueError(f"shape mismatch {y.shape} vs {z.shape}")
    return DenseTensor._adopt(y.values * z.values)


def brute_force_max(x):
    """Exhaustive maximum of a dense tensor.

    Returns ``(value, index)`` with a 1-based multi-index; ties break toward
    the first index in multi-index order.
    """
    flat = int(np.argmax(x.values))
    idx = np.unravel_index(flat, x.shape)
    return float(x.values[idx]), tuple(int(i) + 1 for i in idx)
