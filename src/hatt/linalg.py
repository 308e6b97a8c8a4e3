"""Instrumented dense kernels: multiplication, QR, truncated SVD.

Every kernel takes an optional :class:`FlopLedger` and charges a closed-form
flop count:

* ``matmul`` (m x n times n x r): ``m (2n - 1) r``;
* ``tri_matmul`` (m x k times triangular k x k): ``m k^2``;
* ``econ_qr`` of m x n: ``4 m n t - 4 t^3 / 3`` with ``t = min(m, n)``
  (Householder cost with explicit Q; charged whether or not R is consumed);
* ``truncated_svd`` of m x n: one thin SVD, charged
  ``SVD_COST_FACTOR * max(m, n) * min(m, n)^2`` however many triplets it
  keeps; the exact constant of an SVD is implementation-dependent, so this
  counter is an order-of-magnitude estimate and is reported separately.

Factorizations are LAPACK-backed (numpy.linalg).  QR has a sign convention:
R's diagonal is nonnegative (sign bit clear), so where x has full column
rank R is the unique triangular factor, as the sweep's TSQR combine needs.
SVD triplets keep LAPACK's signs: every consumer uses u sigma v^T, or
left-orthogonal cores whose column signs do not change the tensor.
"""

from dataclasses import dataclass

import numpy as np

from .indexing import positive_whole

SVD_COST_FACTOR = 14


class FlopLedger:
    """Mutable flop counters; integers, monotone within a session."""

    def __init__(self):
        self.matmul_flops = 0
        self.qr_flops = 0
        self.svd_flops = 0

    def add_matmul(self, flops):
        self.matmul_flops += int(flops)

    def add_qr(self, flops):
        self.qr_flops += int(flops)

    def add_svd(self, flops):
        self.svd_flops += int(flops)

    def total(self):
        return self.matmul_flops + self.qr_flops + self.svd_flops

    def __repr__(self):
        return (
            f"FlopLedger(matmul={self.matmul_flops}, qr={self.qr_flops}, "
            f"svd={self.svd_flops})"
        )


class _NonFiniteInput(ValueError):
    """A factorization's input holds an inf or a NaN.  The kernels' one scan
    of their input raises it, so a caller that names the matrix catches it
    instead of scanning the matrix again."""


@dataclass
class QrResult:
    q: np.ndarray
    r: np.ndarray


@dataclass
class SvdResult:
    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def matmul(a, b, ledger=None):
    """Matrix product with the standard m(2n-1)r flop charge."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"cannot multiply {a.shape} by {b.shape}")
    if ledger is not None:
        m, n = a.shape
        ledger.add_matmul(m * (2 * n - 1) * b.shape[1])
    return a @ b


def tri_matmul(a, t, ledger=None):
    """Product a @ t where t is square triangular; charged m k^2 flops.

    The triangular structure halves the count relative to a dense product;
    the value is computed with a plain product.
    """
    a = np.asarray(a)
    t = np.asarray(t)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("tri_matmul needs a square triangular factor")
    if a.ndim != 2 or a.shape[1] != t.shape[0]:
        raise ValueError(f"cannot multiply {a.shape} by {t.shape}")
    if ledger is not None:
        ledger.add_matmul(a.shape[0] * t.shape[0] * t.shape[1])
    return a @ t


def scale_columns(a, w, ledger=None):
    """Multiply column j of `a` by w[j]; charged one flop per element."""
    a = np.asarray(a)
    w = np.asarray(w)
    if ledger is not None:
        ledger.add_matmul(a.size)
    return a * w[np.newaxis, :]


def econ_qr(x, ledger=None):
    """Economy QR with a nonnegative-diagonal sign convention.

    For m >= n returns Q (m x n, orthonormal columns) and R (n x n upper
    triangular); for m < n, Q is m x m and R is m x n upper trapezoidal.
    Sign convention: every diagonal entry of R has its sign bit clear (a
    zero pivot is +0.0).  Column j of Q and row j of R are negated together
    wherever LAPACK's R(j, j) has its sign bit set, so Q R is unchanged and,
    where x has full column rank, the factorization is the unique one with a
    positive diagonal.  The flop charge is the explicit-Q Householder cost,
    whether or not the caller uses R.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("econ_qr expects a matrix")
    if not np.isfinite(x).all():
        raise _NonFiniteInput("econ_qr input contains non-finite values")
    m, n = x.shape
    q, r = np.linalg.qr(x, mode="reduced")
    # multiplying by +1.0 is exact, so negating always costs less than testing
    signs = np.copysign(1.0, r.diagonal())
    q *= signs
    r *= signs[:, np.newaxis]
    if ledger is not None:
        t = min(m, n)
        ledger.add_qr(round(4 * m * n * t - 4 * t**3 / 3))
    return QrResult(q, r)


def truncated_svd(x, target_rank=None, ledger=None):
    """Leading singular triplets of a matrix: numpy's thin SVD as LAPACK
    returns it, with its signs, the leading `target_rank` triplets as views.

    Keeps a whole number >= 1 and at most min(m, n) triplets, or all
    min(m, n) of them for None.  Ties keep the earlier-indexed triplets.  A
    matrix with an inf or a NaN is a ValueError, charged nothing: `x` is
    scanned before the SVD reads it, since LAPACK's SVD may never return on
    an inf.
    """
    if target_rank is not None:
        target_rank = positive_whole(target_rank, "target_rank")
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("truncated_svd expects a matrix")
    if not np.isfinite(x).all():
        raise _NonFiniteInput("truncated_svd input contains non-finite values")
    m, n = x.shape
    if target_rank is not None and target_rank > min(m, n):
        raise ValueError(f"target rank {target_rank} exceeds min(m, n) = {min(m, n)}")
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    if ledger is not None:
        ledger.add_svd(SVD_COST_FACTOR * max(m, n) * min(m, n) ** 2)
    # a slice to None keeps every triplet
    return SvdResult(u[:, :target_rank], s[:target_rank], vt[:target_rank].T)
