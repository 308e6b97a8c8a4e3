"""Argument validation and the package's multi-index convention.

Tensor multi-indexing is 1-based and *last-index-fastest*:
``(i_1, ..., i_d) -> i_d + (i_{d-1}-1) n_d + ... + (i_1-1) n_2...n_d``,
which coincides with C-order flattening of a numpy array (plus 1).
"""


def whole_numbers(values, what):
    """`values` as a tuple of ints; a value that is not a whole number
    (2.5, inf, NaN, "3") is a ValueError naming `what`."""
    values = tuple(values)
    try:
        ints = tuple(int(v) for v in values)
    except (OverflowError, TypeError, ValueError):
        ints = None
    if ints != values:
        raise ValueError(f"{what} must be whole numbers, got {values}")
    return ints


def positive_whole(value, what):
    """`value` as an int; one that is not a whole number >= 1 is a
    ValueError naming `what`."""
    (value,) = whole_numbers((value,), what)
    if value < 1:
        raise ValueError(f"{what} must be >= 1, got {value}")
    return value


def check_shape(shape):
    """Validate mode sizes and return them as a tuple of ints."""
    dims = whole_numbers(shape, "mode sizes")
    if len(dims) < 1:
        raise ValueError("shape needs at least one mode")
    if any(n < 1 for n in dims):
        raise ValueError(f"mode sizes must be positive, got {dims}")
    return dims
