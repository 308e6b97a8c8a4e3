import numpy as np
import pytest

from hatt import (
    FlopLedger,
    econ_qr,
    matmul,
    rank1_decompose,
    tri_matmul,
    truncated_svd,
)


def test_matmul_identity_and_ledger(rng):
    ledger = FlopLedger()
    b = rng.normal(size=(3, 2))
    out = matmul(np.eye(3), b, ledger)
    assert np.allclose(out, b)
    assert ledger.matmul_flops == 3 * 5 * 2


def test_matmul_ledger_formula(rng):
    ledger = FlopLedger()
    matmul(rng.normal(size=(2, 3)), rng.normal(size=(3, 4)), ledger)
    assert ledger.matmul_flops == 2 * (2 * 3 - 1) * 4


def test_matmul_associativity(rng):
    a, b, c = (rng.normal(size=(4, 4)) for _ in range(3))
    assert np.allclose((a @ b) @ c, a @ (b @ c), atol=1e-12)


def test_matmul_shape_error():
    with pytest.raises(ValueError):
        matmul(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ValueError, match="square triangular"):
        tri_matmul(np.ones((2, 3)), np.ones((3, 2)))
    with pytest.raises(ValueError, match="cannot multiply"):
        tri_matmul(np.ones((2, 3)), np.ones((2, 2)))
    # 1-D operands raised IndexError: tuple index out of range
    with pytest.raises(ValueError, match="cannot multiply"):
        tri_matmul(np.ones(3), np.ones((3, 3)))
    with pytest.raises(ValueError, match="square triangular"):
        tri_matmul(np.ones((3, 3)), np.ones(3))


def test_ledger_sums_exactly(rng):
    ledger = FlopLedger()
    expected = 0
    for m, n, r in [(3, 4, 5), (7, 2, 9), (1, 8, 1)]:
        matmul(rng.normal(size=(m, n)), rng.normal(size=(n, r)), ledger)
        expected += m * (2 * n - 1) * r
    assert ledger.matmul_flops == expected


def test_tri_matmul_matches_and_charges_half(rng):
    a = rng.normal(size=(5, 3))
    t = np.triu(rng.normal(size=(3, 3)))
    ledger = FlopLedger()
    out = tri_matmul(a, t, ledger)
    assert np.allclose(out, a @ t)
    assert ledger.matmul_flops == 5 * 9


def test_econ_qr_identity():
    res = econ_qr(np.eye(4))
    assert np.allclose(res.q, np.eye(4))
    assert np.allclose(res.r, np.eye(4))


def test_econ_qr_column_sign_convention():
    res = econ_qr(np.array([[3.0], [4.0]]))
    assert np.allclose(res.q, [[0.6], [0.8]])
    assert np.allclose(res.r, [[5.0]])


def test_econ_qr_properties(rng):
    x = rng.normal(size=(20, 5))
    res = econ_qr(x)
    assert np.max(np.abs(res.q.T @ res.q - np.eye(5))) <= 1e-13
    assert np.linalg.norm(res.q @ res.r - x) / np.linalg.norm(x) <= 1e-13
    assert np.all(np.diag(res.r) >= 0)


@pytest.mark.parametrize("shape", ((6, 3), (3, 5)))
@pytest.mark.parametrize("col, value", ((0, 0.0), (1, 0.0), (0, -0.0), (2, -0.0)))
def test_econ_qr_signs_of_rank_deficient_inputs(rng, shape, col, value):
    # LAPACK returns a zero pivot as -0.0 for a column of -0.0 in first or
    # last place; the convention clears that sign bit too, negating Q's
    # column with R's row, so Q stays orthonormal and Q R is still x
    x = rng.normal(size=shape)
    x[:, col] = value
    res = econ_qr(x)
    t = min(shape)
    assert not np.signbit(np.diag(res.r)).any()
    assert np.max(np.abs(res.q.T @ res.q - np.eye(t))) <= 1e-13
    assert np.max(np.abs(res.q @ res.r - x)) <= 1e-13 * np.max(np.abs(x))


def test_econ_qr_deterministic(rng):
    x = rng.normal(size=(8, 3))
    a = econ_qr(x)
    b = econ_qr(x.copy())
    assert np.array_equal(a.q, b.q) and np.array_equal(a.r, b.r)


def test_econ_qr_ledger_formula(rng):
    ledger = FlopLedger()
    econ_qr(rng.normal(size=(10, 4)), ledger=ledger)
    assert ledger.qr_flops == round(4 * 10 * 16 - 4 * 64 / 3)


def test_econ_qr_rejects_nonfinite():
    with pytest.raises(ValueError):
        econ_qr(np.array([[np.inf, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="econ_qr expects a matrix"):
        econ_qr(np.ones(3))
    with pytest.raises(ValueError, match="truncated_svd expects a matrix"):
        truncated_svd(np.ones(3))
    with pytest.raises(ValueError, match="rank1_decompose expects a matrix"):
        rank1_decompose(np.ones(3), 1)
    with pytest.raises(ValueError, match="truncated_svd input contains non-finite"):
        truncated_svd(np.array([[np.nan, 1.0]]))


def reconstruction_error(x, res):
    """||x - U diag(s) V^T||_F of a truncated SVD."""
    return np.linalg.norm(x - res.u @ np.diag(res.s) @ res.v.T)


def test_truncated_svd_diag():
    x = np.diag([3.0, 2.0, 1.0])
    res = truncated_svd(x, target_rank=2)
    assert np.allclose(res.s, [3.0, 2.0])
    assert reconstruction_error(x, res) == pytest.approx(1.0)


def test_truncated_svd_rank_one(rng):
    # without a target rank every triplet is kept, even the ones a rank-1
    # input has at rounding level; dropping them is rank1_decompose's rule
    u = rng.normal(size=4)
    v = rng.normal(size=3)
    res = truncated_svd(np.outer(u, v))
    assert len(res.s) == 3 and res.u.shape == (4, 3) and res.v.shape == (3, 3)
    assert np.all(res.s[1:] <= 1e-12 * res.s[0])
    recon = res.u @ np.diag(res.s) @ res.v.T
    assert np.allclose(recon, np.outer(u, v), atol=1e-12)
    assert len(truncated_svd(np.zeros((2, 5))).s) == 2


def test_truncated_svd_full_reconstruction(rng):
    x = rng.normal(size=(8, 5))
    res = truncated_svd(x, target_rank=5)
    recon = res.u @ np.diag(res.s) @ res.v.T
    assert np.linalg.norm(recon - x) / np.linalg.norm(x) <= 1e-12


def test_truncated_svd_target_rank_bound():
    with pytest.raises(ValueError):
        truncated_svd(np.ones((3, 4)), target_rank=4)


@pytest.mark.parametrize("name, value, match", (("target_rank", 0, ">= 1"),
                                                ("target_rank", -2, ">= 1"),
                                                ("target_rank", 2.5, "whole numbers")))
def test_truncated_svd_counts_are_whole_numbers_from_one(name, value, match):
    # each of these returned one triplet (two for 2.5) instead of refusing
    with pytest.raises(ValueError, match=f"{name} must be {match}"):
        truncated_svd(np.diag([3.0, 2.0, 1.0]), **{name: value})
    assert len(truncated_svd(np.diag([3.0, 2.0, 1.0]), **{name: 2.0}).s) == 2


def test_truncated_svd_optimality(rng):
    # dropping any other subset of singular directions is never better
    x = rng.normal(size=(6, 6))
    full = truncated_svd(x, target_rank=6)
    for ell in (1, 3, 5):
        res = truncated_svd(x, target_rank=ell)
        best = np.sqrt(np.sum(full.s[ell:] ** 2))
        # Eckart-Young: the rank-ell truncation error is the dropped tail
        assert reconstruction_error(x, res) == pytest.approx(best, rel=1e-12)
        # any other ell-subset of the basis leaves at least this much energy
        s2 = np.sort(full.s**2)
        worst_kept = np.sqrt(np.sum(s2[: 6 - ell]))
        assert best <= worst_kept + 1e-12


def test_truncated_svd_sign_determinism(rng):
    x = rng.normal(size=(7, 4))
    a = truncated_svd(x)
    b = truncated_svd(x.copy())
    assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
    for j in range(a.u.shape[1]):
        col = a.u[:, j]
        nz = np.nonzero(col)[0]
        assert col[nz[0]] >= 0



def _loop_signs(x):
    """Reference sign convention, one column at a time: flip u[:, j] and
    v[:, j] when the first nonzero entry of u[:, j] is negative."""
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    u, v = u.copy(), vt.T.copy()
    for j in range(u.shape[1]):
        nz = np.nonzero(u[:, j])[0]
        if nz.size and u[nz[0], j] < 0:
            u[:, j], v[:, j] = -u[:, j], -v[:, j]
    return u, s, v


def test_truncated_svd_signs_skip_leading_zeros():
    """Block-diagonal input: the two leading left singular vectors start
    with a zero, and LAPACK returns the first with a negative first nonzero
    entry; the vectorized flip matches the column loop bit for bit."""
    x = np.zeros((4, 3))
    x[0, 0] = 0.5
    x[1:, 1:] = [[3.0, 1.0], [1.0, 2.0], [0.5, -1.0]]
    raw = np.linalg.svd(x, full_matrices=False)[0]
    assert raw[0, 0] == 0 and raw[1, 0] < 0
    res = truncated_svd(x, target_rank=3)
    u, s, v = _loop_signs(x)
    assert np.array_equal(res.u, u) and np.array_equal(res.s, s) and np.array_equal(res.v, v)
    assert res.u[1, 0] > 0 and res.u[0, 2] > 0
    assert res.u.flags.c_contiguous and res.v.flags.c_contiguous
    np.testing.assert_allclose((res.u * res.s) @ res.v.T, x, atol=1e-14)


def test_truncated_svd_of_no_rows():
    res = truncated_svd(np.zeros((0, 3)))
    assert res.u.shape == (0, 0) and res.s.shape == (0,) and res.v.shape == (3, 0)
