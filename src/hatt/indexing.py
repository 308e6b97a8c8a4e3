"""Shape validation and the package's multi-index convention.

Tensor multi-indexing is 1-based and *last-index-fastest*:
``(i_1, ..., i_d) -> i_d + (i_{d-1}-1) n_d + ... + (i_1-1) n_2...n_d``,
which coincides with C-order flattening of a numpy array (plus 1).
"""


def check_shape(shape):
    """Validate mode sizes and return them as a tuple of ints."""
    dims = tuple(int(n) for n in shape)
    if len(dims) < 1:
        raise ValueError("shape needs at least one mode")
    if any(n < 1 for n in dims):
        raise ValueError(f"mode sizes must be positive, got {dims}")
    return dims

