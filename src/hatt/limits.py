"""Resource guards for dense oracles and TT-core materialization.

Two independent caps:

* the *dense cap* bounds the element count of any explicit d-way array
  (dense oracles are desk-scale by design; 10**6 by default);
* the *core cap* bounds the element count of any single TT core.  It is
  disabled by default and exists to demonstrate, and test, that the
  Hadamard-avoiding sweep never materializes a product core.

Both caps are changed only for the extent of a ``with`` block, through
:func:`dense_limit` and :func:`core_limit` (a whole number >= 1; None
disables a cap).
"""

from contextlib import contextmanager

from .indexing import positive_whole


class ResourceLimitError(RuntimeError):
    """An operation would allocate more elements than the configured cap."""


_dense_cap = 1_000_000
_core_cap = None


def dense_cap():
    return _dense_cap


def check_dense(n_elements, what="dense tensor"):
    if _dense_cap is not None and n_elements > _dense_cap:
        raise ResourceLimitError(
            f"{what} with {n_elements} elements exceeds the dense cap {_dense_cap}"
        )


def check_core(n_elements):
    if _core_cap is not None and n_elements > _core_cap:
        raise ResourceLimitError(
            f"TT core with {n_elements} elements exceeds the core cap {_core_cap}"
        )


@contextmanager
def dense_limit(n):
    """Cap dense arrays at n elements inside the block (None: no cap)."""
    global _dense_cap
    old, _dense_cap = _dense_cap, None if n is None else positive_whole(n, "dense cap")
    try:
        yield
    finally:
        _dense_cap = old


@contextmanager
def core_limit(n):
    """Cap single TT cores at n elements inside the block (None: no cap)."""
    global _core_cap
    old, _core_cap = _core_cap, None if n is None else positive_whole(n, "core cap")
    try:
        yield
    finally:
        _core_cap = old
