"""1-based multi-index arithmetic.

Tensor multi-indexing is *last-index-fastest*:
``(i_1, ..., i_d) -> i_d + (i_{d-1}-1) n_d + ... + (i_1-1) n_2...n_d``,
which coincides with C-order flattening of a numpy array (plus 1).  All
indices entering or leaving this module are 1-based.
"""


def check_shape(shape):
    """Validate mode sizes and return them as a tuple of ints."""
    dims = tuple(int(n) for n in shape)
    if len(dims) < 1:
        raise ValueError("shape needs at least one mode")
    if any(n < 1 for n in dims):
        raise ValueError(f"mode sizes must be positive, got {dims}")
    return dims


def multi_index(indices, shape):
    """Map a 1-based multi-index to its 1-based flat position (last index fastest)."""
    dims = check_shape(shape)
    idx = tuple(int(i) for i in indices)
    if len(idx) != len(dims):
        raise IndexError(f"expected {len(dims)} indices, got {len(idx)}")
    for i, n in zip(idx, dims):
        if not 1 <= i <= n:
            raise IndexError(f"index {i} out of range 1..{n}")
    flat = idx[-1]
    stride = 1
    for k in range(len(dims) - 2, -1, -1):
        stride *= dims[k + 1]
        flat += (idx[k] - 1) * stride
    return flat
