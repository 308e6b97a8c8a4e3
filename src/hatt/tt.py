"""Tensor trains: cores, contraction, arithmetic, and serialization.

A TT tensor is a chain of order-3 cores ``G_k`` of extent
``r_{k-1} x n_k x r_k`` with boundary ranks ``r_0 = r_d = 1``; element
``(i_1, ..., i_d)`` of the represented tensor is the product of matrix
slices ``G_1(i_1) G_2(i_2) ... G_d(i_d)``.

Core arrays are C-ordered, so the horizontal matricization ``H<G>`` of a
core (mode-1 unfolding, size ``r_{k-1} x n_k r_k``) and the vertical
matricization ``V<G>`` (size ``r_{k-1} n_k x r_k``) are plain reshapes.

Non-finite values are rejected where data enters the package: ``TTCore``,
``TTTensor`` built from raw arrays, and :func:`load_tt` copy and scan every
core, and so do the public arithmetic (``tt_add``, ``tt_scale``) and
:func:`pkp_cores` (a product of finite cores can overflow; it scans only
when max|Y| max|Z| is not finite).  Cores that the package computes from
cores it has already validated (kernel outputs, sweep outputs, random
draws) go through ``TTCore._trusted``, which skips the copy and the scan
but keeps the core cap and the read-only flag; the sweeps check their one
core that can overflow, the last.
"""

import numpy as np

from .dense import DenseTensor
from .indexing import check_shape
from .limits import check_core, check_dense, dense_cap


class TTCore:
    """One order-3 TT core; immutable after construction."""

    def __init__(self, values, copy=True):
        values = np.array(values, dtype=float, copy=copy)
        if values.ndim != 3:
            raise ValueError(f"a TT core must be a 3-way array, got ndim={values.ndim}")
        check_core(values.size)
        if not np.all(np.isfinite(values)):
            raise ValueError("TT core contains non-finite values")
        values.setflags(write=False)
        self.values = values

    @classmethod
    def _trusted(cls, values):
        """A core of an array the package computed from validated cores: no
        copy and no finiteness scan.  The array must not be written again."""
        check_core(values.size)
        values.setflags(write=False)
        core = cls.__new__(cls)
        core.values = values
        return core

    @property
    def left_rank(self):
        return self.values.shape[0]

    @property
    def mode_size(self):
        return self.values.shape[1]

    @property
    def right_rank(self):
        return self.values.shape[2]

    def slice(self, i):
        """The i-th lateral matrix (left_rank x right_rank), i is 1-based."""
        if not 1 <= i <= self.mode_size:
            raise IndexError(f"slice index {i} out of range 1..{self.mode_size}")
        return self.values[:, i - 1, :]

    def __repr__(self):
        return f"TTCore({self.left_rank} x {self.mode_size} x {self.right_rank})"


def h_unfold(core):
    """Horizontal matricization: r_{k-1} x (n_k r_k)."""
    v = core.values if isinstance(core, TTCore) else np.asarray(core)
    return v.reshape(v.shape[0], -1)


def v_unfold(core):
    """Vertical matricization: (r_{k-1} n_k) x r_k."""
    v = core.values if isinstance(core, TTCore) else np.asarray(core)
    return v.reshape(-1, v.shape[2])


class TTTensor:
    """A sequence of compatible TT cores."""

    def __init__(self, cores):
        cores = tuple(c if isinstance(c, TTCore) else TTCore(c) for c in cores)
        if not cores:
            raise ValueError("a TT tensor needs at least one core")
        if cores[0].left_rank != 1 or cores[-1].right_rank != 1:
            raise ValueError("boundary ranks must be 1")
        for k in range(len(cores) - 1):
            if cores[k].right_rank != cores[k + 1].left_rank:
                raise ValueError(
                    f"rank mismatch between cores {k + 1} and {k + 2}: "
                    f"{cores[k].right_rank} vs {cores[k + 1].left_rank}"
                )
        self.cores = cores
        self.shape = tuple(c.mode_size for c in cores)

    @property
    def d(self):
        return len(self.cores)

    @property
    def ranks(self):
        """Full rank chain (r_0, r_1, ..., r_d), boundary entries are 1."""
        return (1,) + tuple(c.right_rank for c in self.cores)

    @property
    def size(self):
        return int(np.prod(self.shape, dtype=np.int64))

    def __repr__(self):
        return f"TTTensor(shape={self.shape}, ranks={self.ranks})"


def _max_abs(values):
    """max |v| over an array, as a Python float, without an |v| copy."""
    return max(float(values.max()), -float(values.min()))


def pkp_cores(y, z):
    """Partial Kronecker product of two cores sharing a mode size.

    The result has ranks (r1*s1, n, r2*s2) and its i-th slice is
    ``kron(Y(i), Z(i))``; rows and columns pair the Y index (slow) with the
    Z index (fast).  The boundary conveniences (first cores with left ranks
    1, last cores with right ranks 1) are this same operation.  A product
    that overflows float64 raises ValueError.  Each element is one rounded
    product, and rounding is monotone, so no element can overflow unless
    max|Y| * max|Z| does: the output is scanned only when that bound is not
    finite.
    """
    if y.mode_size != z.mode_size:
        raise ValueError(f"mode mismatch {y.mode_size} vs {z.mode_size}")
    check_core(y.values.size * z.values.size // y.mode_size)
    out = np.einsum("aic,bid->abicd", y.values, z.values)
    # Python floats: an infinite bound is a value here, not a RuntimeWarning
    bound = _max_abs(y.values) * _max_abs(z.values)
    if not np.isfinite(bound) and not np.all(np.isfinite(out)):
        raise ValueError("the Hadamard product of these finite cores overflows float64")
    out = out.reshape(y.left_rank * z.left_rank, y.mode_size, y.right_rank * z.right_rank)
    return TTCore._trusted(out)


def partial_contracted_product(x, k, l):
    """Contract cores k..l (1-based, inclusive) into one array.

    The result has shape (r_{k-1}, n_k, ..., n_l, r_l).
    """
    if not 1 <= k <= l <= x.d:
        raise IndexError(f"core range {k}..{l} out of range 1..{x.d}")
    out = x.cores[k - 1].values
    for j in range(k, l):
        out = np.tensordot(out, x.cores[j].values, axes=1)
        check_dense(out.size, "partial contracted product")
    return out


def tt_to_dense(x):
    """Materialize a TT tensor as a DenseTensor (dense cap enforced).

    Cores 1..p are contracted left to right and cores p+1..d right to left,
    and one GEMM joins the two partial products.  The split p is the one
    whose largest intermediate is smallest, so no intermediate carries a
    large trailing (or leading) rank when a smaller split exists.
    """
    check_dense(x.size, "TT reconstruction")
    d, shape, ranks = x.d, x.shape, x.ranks
    # left[j]: size of cores 1..j contracted; right[j]: cores j+1..d
    left = [int(np.prod(shape[:j], dtype=np.int64)) * ranks[j] for j in range(d + 1)]
    right = [ranks[j] * int(np.prod(shape[j:], dtype=np.int64)) for j in range(d + 1)]
    p = min(range(1, d + 1), key=lambda j: max(left[1:j + 1] + right[j:]))
    head = partial_contracted_product(x, 1, p).reshape(-1, ranks[p])
    tail = np.ones((1, 1))
    for core in reversed(x.cores[p:]):
        check_dense(core.left_rank * core.mode_size * tail.shape[1],
                    "partial contracted product")
        tail = (v_unfold(core) @ tail).reshape(core.left_rank, -1)
    return DenseTensor((head @ tail).reshape(shape), copy=False)


def tt_hadamard(y, z):
    """Elementwise product of two TT tensors of identical shape.

    Core k of the result is the partial Kronecker product of the factors'
    cores, so the rank chain is the elementwise product of the factors'
    chains.  This materializes the product cores; the sketching sweeps in
    :mod:`hatt.recompress` exist to avoid exactly that.
    """
    if y.shape != z.shape:
        raise ValueError(f"shape mismatch {y.shape} vs {z.shape}")
    return TTTensor([pkp_cores(cy, cz) for cy, cz in zip(y.cores, z.cores)])


def tt_add(y, z):
    """Sum of two TT tensors by block-core concatenation (no rounding).

    Interior ranks add exactly; boundary ranks stay 1.
    """
    if y.shape != z.shape:
        raise ValueError(f"shape mismatch {y.shape} vs {z.shape}")
    if y.d == 1:
        return TTTensor([y.cores[0].values + z.cores[0].values])
    cores = []
    for k, (cy, cz) in enumerate(zip(y.cores, z.cores)):
        n = cy.mode_size
        if k == 0:
            block = np.concatenate([cy.values, cz.values], axis=2)
        elif k == y.d - 1:
            block = np.concatenate([cy.values, cz.values], axis=0)
        else:
            r1, r2 = cy.left_rank, cy.right_rank
            s1, s2 = cz.left_rank, cz.right_rank
            block = np.zeros((r1 + s1, n, r2 + s2))
            block[:r1, :, :r2] = cy.values
            block[r1:, :, r2:] = cz.values
        cores.append(TTCore(block, copy=False))
    return TTTensor(cores)


def tt_scale(y, c):
    """Multiply a TT tensor by a scalar (absorbed into the first core)."""
    cores = [TTCore(y.cores[0].values * float(c), copy=False)]
    cores.extend(y.cores[1:])
    return TTTensor(cores)


def tt_ones(shape):
    """Rank-1 TT tensor of all ones."""
    shape = check_shape(shape)
    return TTTensor([np.ones((1, n, 1)) for n in shape])


def tt_dot(y, z):
    """Inner product of two TT tensors, contracted core by core.

    The carry C (r_{k-1} x s_{k-1}) takes two GEMMs per core:
    ``U = C^T H<Y_k>`` refolded to (s_{k-1} n_k) x r_k, then ``C = U^T V<Z_k>``.
    """
    if y.shape != z.shape:
        raise ValueError(f"shape mismatch {y.shape} vs {z.shape}")
    c = np.ones((1, 1))
    for cy, cz in zip(y.cores, z.cores):
        u = (c.T @ h_unfold(cy)).reshape(-1, cy.right_rank)
        c = u.T @ v_unfold(cz)
    return float(c[0, 0])


def tt_norm(y):
    """Frobenius norm computed in TT form, accurate to a few eps at any scale.

    A left-to-right sweep carries only R factors: with R the factor of the
    cores contracted so far (R^T R is their Gram matrix), the next R is the
    R factor of ``V<R G_k>``.  After the last core it is 1 x 1, and its
    magnitude is the norm.  Each carry is rescaled by a power of two, which
    is exact, so no step overflows or underflows while the norm is
    representable (a norm beyond float64 is inf).
    """
    carry, exponent = np.ones((1, 1)), 0
    for core in y.cores:
        rows = (carry @ h_unfold(core)).reshape(-1, core.right_rank)
        carry = np.linalg.qr(rows, mode="r")
        shift = int(np.frexp(np.max(np.abs(carry)))[1])
        carry, exponent = np.ldexp(carry, -shift), exponent + shift
    return float(np.ldexp(abs(carry[0, 0]), exponent))


def relative_error(x_approx, x_ref):
    """Relative Frobenius error ||approx - ref||_F / ||ref||_F.

    `x_ref` may be a TT tensor or a DenseTensor.  The size picks the path:
    a DenseTensor reference, or a tensor whose element count fits the dense
    cap, is compared densely (the numerically safer route for very small
    errors); a larger TT reference through the norm of the TT difference.
    """
    ref_dense = isinstance(x_ref, DenseTensor)
    shape = x_ref.shape
    if x_approx.shape != shape:
        raise ValueError(f"shape mismatch {x_approx.shape} vs {shape}")
    cap = dense_cap()
    if ref_dense or cap is None or int(np.prod(shape, dtype=np.int64)) <= cap:
        ref = x_ref if ref_dense else tt_to_dense(x_ref)
        ref_norm = ref.norm()
        if ref_norm == 0.0:
            raise ZeroDivisionError("reference tensor has zero norm")
        diff = tt_to_dense(x_approx).values - ref.values
        return float(np.linalg.norm(diff) / ref_norm)
    ref_norm = tt_norm(x_ref)
    if ref_norm == 0.0:
        raise ZeroDivisionError("reference tensor has zero norm")
    diff = tt_add(x_approx, tt_scale(x_ref, -1.0))
    return tt_norm(diff) / ref_norm


def left_orthogonality_defect(x):
    """max_k ||V<G_k>^T V<G_k> - I||_max over cores 1..d-1 (0 for d = 1)."""
    defect = 0.0
    for core in x.cores[:-1]:
        v = v_unfold(core)
        g = v.T @ v
        defect = max(defect, float(np.max(np.abs(g - np.eye(g.shape[0])))))
    return defect


# --- serialization ---------------------------------------------------------

_TT_HEADER = "# hatt tt-tensor v1"


def save_tt(x, path):
    """Write a TT tensor to a simple self-describing text container.

    Layout (documented in the file header): order d, mode sizes, rank chain,
    then the cores in order k = 1..d, each as a flat C-ordered block (left
    rank slowest, mode index middle, right rank fastest), one value per line.
    """
    with open(path, "w") as fh:
        fh.write(_TT_HEADER + "\n")
        fh.write("# d; mode sizes n_1..n_d; rank chain r_0..r_d; then cores k=1..d\n")
        fh.write("# core values are C-ordered: left rank slowest, right rank fastest\n")
        fh.write(f"d {x.d}\n")
        fh.write("n " + " ".join(str(n) for n in x.shape) + "\n")
        fh.write("r " + " ".join(str(r) for r in x.ranks) + "\n")
        for k, core in enumerate(x.cores, start=1):
            fh.write(f"core {k}\n")
            for v in core.values.ravel():
                fh.write(f"{v:.17g}\n")


def load_tt(path):
    """Read a TT tensor written by :func:`save_tt`."""
    with open(path) as fh:
        tokens = []
        first = fh.readline()
        if first.strip() != _TT_HEADER:
            raise ValueError(f"{path} is not a hatt tt-tensor container")
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.extend(line.split())
    it = iter(tokens)

    def take():
        try:
            return next(it)
        except StopIteration:
            raise ValueError(f"malformed container: {path} ends early") from None

    def expect(tag):
        got = take()
        if got != tag:
            raise ValueError(f"malformed container: expected {tag!r}, got {got!r}")

    expect("d")
    d = int(take())
    expect("n")
    shape = [int(take()) for _ in range(d)]
    expect("r")
    ranks = [int(take()) for _ in range(d + 1)]
    cores = []
    for k in range(1, d + 1):
        expect("core")
        if int(take()) != k:
            raise ValueError("malformed container: core blocks out of order")
        count = ranks[k - 1] * shape[k - 1] * ranks[k]
        vals = np.array([float(take()) for _ in range(count)])
        cores.append(vals.reshape(ranks[k - 1], shape[k - 1], ranks[k]))
    return TTTensor(cores)
