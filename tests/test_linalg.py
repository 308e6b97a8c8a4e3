import numpy as np
import pytest

from hatt import (
    FlopLedger,
    econ_qr,
    matmul,
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


def test_truncated_svd_diag():
    res = truncated_svd(np.diag([3.0, 2.0, 1.0]), target_rank=2)
    assert np.allclose(res.s, [3.0, 2.0])
    assert res.tail_error == pytest.approx(1.0)


def test_truncated_svd_rank_one(rng):
    u = rng.normal(size=4)
    v = rng.normal(size=3)
    res = truncated_svd(np.outer(u, v))
    assert res.n_terms == 1
    recon = res.u @ np.diag(res.s) @ res.v.T
    assert np.allclose(recon, np.outer(u, v), atol=1e-12)


def test_truncated_svd_full_reconstruction(rng):
    x = rng.normal(size=(8, 5))
    res = truncated_svd(x, target_rank=5)
    recon = res.u @ np.diag(res.s) @ res.v.T
    assert np.linalg.norm(recon - x) / np.linalg.norm(x) <= 1e-12


def test_truncated_svd_target_rank_bound():
    with pytest.raises(ValueError):
        truncated_svd(np.ones((3, 4)), target_rank=4)


def test_truncated_svd_optimality(rng):
    # dropping any other subset of singular directions is never better
    x = rng.normal(size=(6, 6))
    full = truncated_svd(x, target_rank=6)
    for ell in (1, 3, 5):
        res = truncated_svd(x, target_rank=ell)
        best = np.sqrt(np.sum(full.s[ell:] ** 2))
        assert res.tail_error == pytest.approx(best, rel=1e-12)
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

