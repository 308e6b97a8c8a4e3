"""Instrumented dense kernels: multiplication, QR, truncated SVD.

Every kernel takes an optional :class:`FlopLedger` and charges a closed-form
flop count:

* ``matmul`` (m x n times n x r): ``m (2n - 1) r``;
* ``tri_matmul`` (m x k times triangular k x k): ``m k^2``;
* ``econ_qr`` of m x n: ``4 m n t - 4 t^3 / 3`` with ``t = min(m, n)``
  (Householder cost with explicit Q; charged whether or not R is consumed);
* ``truncated_svd`` of m x n: a single calibrated bucket
  ``SVD_COST_FACTOR * max(m, n) * min(m, n)^2``; the exact constant of a
  full SVD is implementation-dependent, so this counter is an
  order-of-magnitude estimate and is reported separately.

Factorizations are LAPACK-backed (numpy.linalg) with deterministic sign
conventions: R's diagonal is nonnegative, and the first nonzero entry of
each left singular vector is nonnegative.
"""

from dataclasses import dataclass

import numpy as np

SVD_COST_FACTOR = 14


class FlopLedger:
    """Mutable flop counters; integers, monotone within a session."""

    def __init__(self, matmul_flops=0, qr_flops=0, svd_flops=0):
        self.matmul_flops = int(matmul_flops)
        self.qr_flops = int(qr_flops)
        self.svd_flops = int(svd_flops)

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


@dataclass
class QrResult:
    q: np.ndarray
    r: np.ndarray


@dataclass
class SvdResult:
    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    tail_error: float

    @property
    def n_terms(self):
        return len(self.s)


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
    if t.shape[0] != t.shape[1]:
        raise ValueError("tri_matmul needs a square triangular factor")
    if a.shape[1] != t.shape[0]:
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
    The flop charge is the explicit-Q Householder cost, whether or not the
    caller uses R.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("econ_qr expects a matrix")
    if not np.all(np.isfinite(x)):
        raise ValueError("econ_qr input contains non-finite values")
    m, n = x.shape
    q, r = np.linalg.qr(x, mode="reduced")
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs[np.newaxis, :]
    r = r * signs[:, np.newaxis]
    if ledger is not None:
        t = min(m, n)
        ledger.add_qr(round(4 * m * n * t - 4 * t**3 / 3))
    return QrResult(q, r)


def truncated_svd(x, target_rank=None, max_terms=None, ledger=None, rank_tol=1e-12):
    """Leading singular triplets of a matrix.

    Keeps ``min(target_rank or numeric rank, max_terms or inf)`` triplets,
    where the numeric rank drops singular values sigma_i <= rank_tol * sigma_1.
    `tail_error` is the Frobenius norm of the discarded tail
    (sqrt of the sum of squared dropped singular values).  Ties keep the
    earlier-indexed triplets.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("truncated_svd expects a matrix")
    if not np.all(np.isfinite(x)):
        raise ValueError("truncated_svd input contains non-finite values")
    m, n = x.shape
    if target_rank is not None and target_rank > min(m, n):
        raise ValueError(f"target rank {target_rank} exceeds min(m, n) = {min(m, n)}")
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    if ledger is not None:
        ledger.add_svd(SVD_COST_FACTOR * max(m, n) * min(m, n) ** 2)
    if target_rank is not None:
        keep = int(target_rank)
    elif s.size and s[0] > 0:
        keep = int(np.sum(s > rank_tol * s[0]))
    else:
        keep = 0
    if max_terms is not None:
        keep = min(keep, int(max_terms))
    keep = max(keep, 1) if s.size else 0
    tail = float(np.sqrt(np.sum(s[keep:] ** 2)))
    u, s, v = u[:, :keep].copy(), s[:keep].copy(), vt[:keep].T.copy()
    # sign convention: first nonzero entry of each left singular vector >= 0
    for j in range(keep):
        col = u[:, j]
        nz = np.nonzero(col)[0]
        if nz.size and col[nz[0]] < 0:
            u[:, j] = -col
            v[:, j] = -v[:, j]
    return SvdResult(u, s, v, tail)

