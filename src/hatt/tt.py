"""Tensor trains: cores, contraction and arithmetic.

A TT tensor is a chain of order-3 cores ``G_k`` of extent
``r_{k-1} x n_k x r_k`` with boundary ranks ``r_0 = r_d = 1``; element
``(i_1, ..., i_d)`` of the represented tensor is the product of matrix
slices ``G_1(i_1) G_2(i_2) ... G_d(i_d)``.

Core arrays are C-ordered, so the horizontal matricization ``H<G>`` of a
core (mode-1 unfolding, size ``r_{k-1} x n_k r_k``) and the vertical
matricization ``V<G>`` (size ``r_{k-1} n_k x r_k``) are plain reshapes.

Non-finite values are rejected where data enters the package: ``TTCore``
and ``TTTensor`` built from raw arrays copy and scan every core.  Past
that, overflow has one rule: the function that computes runs with numpy's
overflow warnings off and names an overflow itself, as a ValueError.  A QR
or SVD that reads a matrix is the detector (its own scan raises
``linalg._NonFiniteInput``, which the caller renames); an explicit scan
stays only where nothing factors the value: :func:`tt_scale`'s one core,
:func:`tt_add`'s sum for d = 1, :func:`pkp_cores`' product (when max|Y|
max|Z| is not finite), the inner products' one result, each sketch that a
sketch pass returns, a sweep's last core and every dense tensor.  Cores
built from validated cores (sweep outputs, power iterates, random draws,
the product cores of :func:`pkp_cores` and the block cores of
:func:`tt_add`) go through ``TTCore._trusted``, which skips the copy and
the scan but keeps the core cap and the read-only flag.  Every
``TTTensor`` checks its boundary and rank chain, reading each core's shape
once.
"""

import math

import numpy as np

from .dense import DenseTensor, _frobenius_norm
from .indexing import check_shape
from .limits import check_core, check_dense, dense_cap


class TTCore:
    """One order-3 TT core; immutable after construction."""

    def __init__(self, values):
        values = np.array(values, dtype=float)
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

    def __repr__(self):
        return f"TTCore({self.left_rank} x {self.mode_size} x {self.right_rank})"


def h_unfold(core):
    """Horizontal matricization of a TTCore: r_{k-1} x (n_k r_k)."""
    v = core.values
    return v.reshape(v.shape[0], -1)


def v_unfold(core):
    """Vertical matricization of a TTCore: (r_{k-1} n_k) x r_k."""
    v = core.values
    return v.reshape(-1, v.shape[2])


class TTTensor:
    """A sequence of compatible TT cores, kept as given (arrays become TTCores)."""

    def __init__(self, cores):
        cores = tuple(c if isinstance(c, TTCore) else TTCore(c) for c in cores)
        if not cores:
            raise ValueError("a TT tensor needs at least one core")
        shapes = [c.values.shape for c in cores]
        if shapes[0][0] != 1 or shapes[-1][2] != 1:
            raise ValueError("boundary ranks must be 1")
        for k, (left, right) in enumerate(zip(shapes, shapes[1:]), start=1):
            if left[2] != right[0]:
                raise ValueError(f"rank mismatch between cores {k} and {k + 1}: "
                                 f"{left[2]} vs {right[0]}")
        self.cores = cores
        self.shape = tuple(s[1] for s in shapes)

    @property
    def d(self):
        return len(self.cores)

    @property
    def ranks(self):
        """Full rank chain (r_0, r_1, ..., r_d), boundary entries are 1."""
        return (1,) + tuple(c.right_rank for c in self.cores)

    @property
    def size(self):
        return math.prod(self.shape)

    def __repr__(self):
        return f"TTTensor(shape={self.shape}, ranks={self.ranks})"


def check_trains(**named):
    """Each keyword argument must be a TTTensor, and all of them must share
    one shape.  One that is not a TTTensor (an ndarray, a list) is a
    TypeError naming its keyword, raised before any attribute of it is
    read; differing shapes are a ValueError (see :func:`_check_shapes`)."""
    for name, value in named.items():
        if not isinstance(value, TTTensor):
            raise TypeError(f"{name} must be a TTTensor, got {type(value).__name__}")
    _check_shapes(named)


def _check_shapes(named):
    """A ValueError naming every shape in the dict `named` unless all are
    one."""
    if len({x.shape for x in named.values()}) > 1:
        desc = " vs ".join(f"{name} {x.shape}" for name, x in named.items())
        raise ValueError(f"shape mismatch: {desc}")


def pkp_cores(y, z):
    """Partial Kronecker product of two cores sharing a mode size.

    The result has ranks (r1*s1, n, r2*s2) and its i-th slice is
    ``kron(Y(i), Z(i))``; rows and columns pair the Y index (slow) with the
    Z index (fast).  The boundary conveniences (first cores with left ranks
    1, last cores with right ranks 1) are this same operation.  Row (a, b)
    is Y's row a expanded across s2 times Z's row b expanded across r2: one
    contiguous multiply of n r2 s2 elements, not an einsum's runs of s2.  Z
    is expanded once, and Y one row at a time; :func:`tt_hadamard` forms
    the baselines' product with it.  A product that overflows float64
    raises ValueError.  Each element is one rounded product, and rounding
    is monotone, so the output is scanned only when max|Y| * max|Z| is not
    finite.
    """
    if y.mode_size != z.mode_size:
        raise ValueError(f"mode mismatch {y.mode_size} vs {z.mode_size}")
    check_core(y.values.size * z.values.size // y.mode_size)
    (r1, n, r2), (s1, _, s2) = y.values.shape, z.values.shape
    out = np.empty((r1, s1, n * r2 * s2))
    # zx[b, i, c s2 + e] = Z[b, i, e]; Y's row a expanded is [i, c s2 + e] = Y[a, i, c]
    zx = np.repeat(z.values[:, :, None], r2, axis=2).reshape(s1, -1)
    with np.errstate(over="ignore"):  # an overflow is the ValueError below
        for a in range(r1):
            np.multiply(np.repeat(y.values[a], s2, axis=1).reshape(-1), zx, out=out[a])
    # Python floats: an infinite bound is a value here, not a RuntimeWarning
    bound = float(np.abs(y.values).max()) * float(np.abs(z.values).max())
    if not math.isfinite(bound) and not np.isfinite(out).all():
        raise ValueError("the Hadamard product of these finite cores overflows float64")
    return TTCore._trusted(out.reshape(r1 * s1, n, r2 * s2))


def tt_to_dense(x):
    """Materialize a TT tensor as a DenseTensor (dense cap enforced).

    Cores 1..p are contracted left to right and cores p+1..d right to left,
    and one GEMM joins the two partial products.  The split p is the one
    whose largest intermediate is smallest, so no intermediate carries a
    large trailing (or leading) rank when a smaller split exists.
    """
    check_trains(x=x)
    return DenseTensor._adopt(_dense_values(x))


@np.errstate(over="ignore", invalid="ignore")  # the callers name an overflow
def _dense_values(x):
    """The array :func:`tt_to_dense` wraps: fresh, writable, not scanned."""
    check_dense(x.size, "TT reconstruction")
    d, shape, ranks = x.d, x.shape, x.ranks
    # left[j]: size of cores 1..j contracted; right[j]: cores j+1..d
    left = [math.prod(shape[:j]) * ranks[j] for j in range(d + 1)]
    right = [ranks[j] * math.prod(shape[j:]) for j in range(d + 1)]
    p = min(range(1, d + 1), key=lambda j: max(left[1:j + 1] + right[j:]))
    head = x.cores[0].values
    for core in x.cores[1:p]:
        head = np.tensordot(head, core.values, axes=1)
        check_dense(head.size, "partial contracted product")
    head = head.reshape(-1, ranks[p])
    tail = np.ones((1, 1))
    for core in reversed(x.cores[p:]):
        check_dense(core.left_rank * core.mode_size * tail.shape[1],
                    "partial contracted product")
        tail = (v_unfold(core) @ tail).reshape(core.left_rank, -1)
    return (head @ tail).reshape(shape)


def tt_hadamard(y, z):
    """Elementwise product of two TT tensors of identical shape.

    Core k of the result is the partial Kronecker product of the factors'
    cores, so the rank chain is the elementwise product of the factors'
    chains.  This materializes the product cores, at about 1.5 times the
    cost of writing their bytes (:func:`pkp_cores`); the sketching sweeps in
    :mod:`hatt.recompress` exist to avoid exactly that.
    """
    check_trains(y=y, z=z)
    return TTTensor([pkp_cores(cy, cz) for cy, cz in zip(y.cores, z.cores)])


def tt_add(y, z):
    """Sum of two TT tensors by block cores (no rounding): core k is zero
    but for y's core in its leading block and z's in its trailing one.

    Interior ranks add exactly; boundary ranks stay 1.
    """
    check_trains(y=y, z=z)
    if y.d == 1:
        with np.errstate(over="ignore", invalid="ignore"):  # TTCore names an overflow
            return TTTensor([y.cores[0].values + z.cores[0].values])
    ranks = (1,) + tuple(r + s for r, s in zip(y.ranks[1:-1], z.ranks[1:-1])) + (1,)
    cores = []
    for k, (cy, cz) in enumerate(zip(y.cores, z.cores)):
        (r1, n, r2), (s1, _, s2) = cy.values.shape, cz.values.shape
        block = np.zeros((ranks[k], n, ranks[k + 1]))
        block[:r1, :, :r2] = cy.values
        block[-s1:, :, -s2:] = cz.values
        cores.append(TTCore._trusted(block))
    return TTTensor(cores)


def tt_scale(y, c):
    """Multiply a TT tensor by a scalar (absorbed into the first core)."""
    check_trains(y=y)
    with np.errstate(over="ignore", invalid="ignore"):  # TTCore names an overflow
        return TTTensor((TTCore(y.cores[0].values * float(c)),) + y.cores[1:])


def tt_ones(shape):
    """Rank-1 TT tensor of all ones."""
    shape = check_shape(shape)
    return TTTensor([np.ones((1, n, 1)) for n in shape])


def tt_dot(y, z):
    """Inner product of two TT tensors, contracted core by core.

    The carry C (r_{k-1} x s_{k-1}) takes two GEMMs per core:
    ``U = C^T H<Y_k>`` refolded to (s_{k-1} n_k) x r_k, then ``C = U^T V<Z_k>``.
    """
    check_trains(y=y, z=z)
    c = np.ones((1, 1))
    with np.errstate(over="ignore", invalid="ignore"):  # named below
        for cy, cz in zip(y.cores, z.cores):
            u = (c.T @ h_unfold(cy)).reshape(-1, cy.right_rank)
            c = u.T @ v_unfold(cz)
    return _finite_scalar(c)


def _finite_scalar(c):
    """An inner product's 1 x 1 carry as a float; past float64, the named error."""
    if not np.isfinite(c[0, 0]):
        raise ValueError("the inner product overflows float64")
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
    check_trains(y=y)
    carry, exponent = np.ones((1, 1)), 0
    for core in y.cores:
        rows = (carry @ h_unfold(core)).reshape(-1, core.right_rank)
        carry = np.linalg.qr(rows, mode="r")
        shift = int(np.frexp(np.max(np.abs(carry)))[1])
        carry, exponent = np.ldexp(carry, -shift), exponent + shift
    with np.errstate(over="ignore"):  # a norm past float64 is inf
        return float(np.ldexp(abs(carry[0, 0]), exponent))


def relative_error(x_approx, x_ref):
    """Relative Frobenius error ||approx - ref||_F / ||ref||_F.

    `x_ref` may be a TT tensor or a DenseTensor.  The size picks the path:
    a DenseTensor reference, or a tensor whose element count fits the dense
    cap, is subtracted densely, in place (numerically safer for very small
    errors); a larger TT reference through the norm of the TT difference.
    An approximant past float64 is at error inf on both paths, where its
    norm (TT) or its contraction (dense) overflows.
    """
    ref_dense = isinstance(x_ref, DenseTensor)
    check_trains(x_approx=x_approx, **({} if ref_dense else {"x_ref": x_ref}))
    _check_shapes({"x_approx": x_approx, "x_ref": x_ref})  # a dense reference too
    cap = dense_cap()
    if not ref_dense and (cap is None or x_ref.size <= cap):
        x_ref, ref_dense = tt_to_dense(x_ref), True
    ref_norm = x_ref.norm() if ref_dense else tt_norm(x_ref)
    if ref_norm == 0.0:
        raise ZeroDivisionError("reference tensor has zero norm")
    if not ref_dense:
        return tt_norm(tt_add(x_approx, tt_scale(x_ref, -1.0))) / ref_norm
    diff = _dense_values(x_approx)
    diff -= x_ref.values
    # a NaN is inf - inf inside an overflowed contraction
    norm = _frobenius_norm(diff)
    return (math.inf if math.isnan(norm) else norm) / ref_norm


def left_orthogonality_defect(x):
    """max_k ||V<G_k>^T V<G_k> - I||_max over cores 1..d-1 (0 for d = 1)."""
    check_trains(x=x)
    defect = 0.0
    for core in x.cores[:-1]:
        v = v_unfold(core)
        g = v.T @ v
        defect = max(defect, float(np.max(np.abs(g - np.eye(g.shape[0])))))
    return defect

