import numpy as np
import pytest

from hatt import (
    ResourceLimitError,
    SeparableFunctionSpec,
    TTTensor,
    contract_m_onto_pkp,
    econ_qr,
    flop_model,
    fourier_tt,
    gaussian_tt,
    hadamard_dense,
    hatt,
    hilbert_tt,
    hpcrl,
    left_orthogonality_defect,
    partial_contraction_rl,
    power_iteration_max,
    rand_orth,
    random_tt,
    recompress_hadamard,
    relative_error,
    separable_tt,
    tt_add,
    tt_dot,
    tt_hadamard,
    tt_hadamard_dot,
    tt_norm,
    tt_ones,
    tt_rounding,
    tt_scale,
    tt_to_dense,
)
from hatt.rand_tt import derive_seed


def test_order_one_tensors():
    y = TTTensor([np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1)])
    z = TTTensor([np.array([4.0, 5.0, 6.0]).reshape(1, 3, 1)])
    prod = tt_hadamard(y, z)
    assert np.allclose(tt_to_dense(prod).values, [4.0, 10.0, 18.0])
    assert np.allclose(tt_to_dense(tt_rounding(prod, (1, 1))).values,
                       [4.0, 10.0, 18.0])
    assert np.allclose(tt_to_dense(hatt(y, z, (1, 1), seed=0)).values,
                       [4.0, 10.0, 18.0])


@pytest.mark.filterwarnings("ignore::hatt.TargetRankWarning")
def test_order_two_recompression():
    y = gaussian_tt((5, 6), (1, 3, 1), seed=1)
    z = gaussian_tt((5, 6), (1, 2, 1), seed=2)
    ref = hadamard_dense(tt_to_dense(y), tt_to_dense(z))
    for out in (
        tt_rounding(tt_hadamard(y, z), 6),
        rand_orth(tt_hadamard(y, z), 6, seed=3),
        hatt(y, z, 6, seed=3),
    ):
        assert relative_error(out, ref) <= 1e-10


def test_rank_one_targets():
    y = gaussian_tt((4, 4, 4), (1, 3, 3, 1), seed=4)
    z = gaussian_tt((4, 4, 4), (1, 3, 3, 1), seed=5)
    out = hatt(y, z, 1, seed=6)
    assert out.ranks == (1, 1, 1, 1)
    base = tt_rounding(tt_hadamard(y, z), 1)
    ref = hadamard_dense(tt_to_dense(y), tt_to_dense(z))
    # a rank-1 sketch is crude; just require the same order of magnitude
    assert relative_error(out, ref) <= 10 * max(relative_error(base, ref), 1e-2)


def test_econ_qr_wide_matrix(rng):
    x = rng.normal(size=(3, 7))
    res = econ_qr(x)
    assert res.q.shape == (3, 3) and res.r.shape == (3, 7)
    assert np.max(np.abs(res.q.T @ res.q - np.eye(3))) <= 1e-13
    assert np.linalg.norm(res.q @ res.r - x) / np.linalg.norm(x) <= 1e-13


def test_recompression_of_zero_product():
    y = gaussian_tt((3, 3, 3), (1, 2, 2, 1), seed=7)
    zero = TTTensor([np.zeros((1, 3, 2)), np.zeros((2, 3, 2)), np.zeros((2, 3, 1))])
    out = hatt(y, zero, 2, seed=8)
    assert np.allclose(tt_to_dense(out).values, 0.0)


def test_single_mode_size_one():
    y = TTTensor([np.array([[2.0]]).reshape(1, 1, 1)])
    z = TTTensor([np.array([[3.0]]).reshape(1, 1, 1)])
    assert tt_to_dense(tt_hadamard(y, z)).values[0] == pytest.approx(6.0)


@pytest.mark.filterwarnings("ignore::hatt.TargetRankWarning")
def test_non_uniform_mode_sizes(rng):
    # distinct mode sizes and rank chains exercise every reshape ordering
    from hatt import gaussian_tt as gtt
    from hatt.recompress import hpcrl, partial_contraction_rl

    for trial in range(5):
        d = int(rng.integers(3, 6))
        shape = tuple(int(rng.integers(2, 6)) for _ in range(d))
        ry = (1,) + tuple(int(rng.integers(1, 4)) for _ in range(d - 1)) + (1,)
        rz = (1,) + tuple(int(rng.integers(1, 4)) for _ in range(d - 1)) + (1,)
        ell = (1,) + tuple(int(rng.integers(1, 5)) for _ in range(d - 1)) + (1,)
        y = gtt(shape, ry, seed=trial)
        z = gtt(shape, rz, seed=50 + trial)
        sketch = gtt(shape, ell, seed=100 + trial)
        ref = partial_contraction_rl(tt_hadamard(y, z), sketch)
        got = hpcrl(y, z, sketch)
        for a, b in zip(ref, got):
            assert np.linalg.norm(a - b) <= 1e-12 * max(np.linalg.norm(a), 1e-300)
        via_hatt = hatt(y, z, sketch_tt=sketch)
        via_base = rand_orth(tt_hadamard(y, z), sketch_tt=sketch)
        assert relative_error(via_hatt, via_base) <= 1e-11


def test_element_counts_past_int64():
    """10**19 elements overflow int64: the count is exact, the error takes
    the TT path, and the sampled series is refused by the dense cap."""
    x = tt_ones((10,) * 19)
    assert x.size == 10**19
    assert relative_error(x, x) <= 1e-12
    with pytest.raises(ResourceLimitError, match="sampled series"):
        fourier_tt((10,) * 19)


@pytest.mark.parametrize("shape", ((2.5, 3), (3, float("inf")), (float("nan"), 3), ("3", 3)))
def test_mode_sizes_must_be_whole_numbers(shape):
    # int() would truncate 2.5 to 2 and overflow on inf
    with pytest.raises(ValueError, match="whole numbers"):
        tt_ones(shape)
    with pytest.raises(ValueError, match="whole numbers"):
        random_tt(shape, (1, 2, 1), "gaussian", 0)
    assert tt_ones((3.0, np.int64(2))).shape == (3, 2)


@pytest.mark.parametrize("bad", (2.5, float("inf"), float("nan"), "3"))
def test_term_caps_and_seeds_must_be_whole_numbers(bad):
    # int() would truncate 2.5 to 2: hatt would run with cap 2 and seed 2
    # while the flop model priced a cap of 2.5
    y = gaussian_tt((3, 3, 3), (1, 2, 2, 1), seed=1)
    calls = (lambda: hatt(y, y, 2, max_terms=bad, seed=0),
             lambda: flop_model("hatt-1", 4, 4, 3, 3, 6, max_terms=bad),
             lambda: flop_model("hatt-2", bad, 4, 2, 2, 2),
             lambda: hatt(y, y, 2, seed=bad),
             lambda: random_tt((3,), (1, 1), "gaussian", bad),
             lambda: fourier_tt((4, 4), 2, bad),
             lambda: derive_seed(bad, 1))
    for call in calls:
        with pytest.raises(ValueError, match="whole numbers"):
            call()
    want = hatt(y, y, 2, max_terms=2, seed=3)
    # a 0-d array target is a scalar, as np.int64 is
    for got in (hatt(y, y, 2, max_terms=2.0, seed=np.int64(3)),
                hatt(y, y, np.array(2), max_terms=2, seed=3)):
        assert all(np.array_equal(a.values, b.values) for a, b in zip(got.cores, want.cores))


def test_negative_seeds_are_named_value_errors():
    # numpy's SeedSequence raised "expected non-negative integer" from
    # inside the draw
    y = gaussian_tt((3, 3, 3), (1, 2, 2, 1), seed=1)
    calls = (lambda: hatt(y, y, 2, seed=-1),
             lambda: rand_orth(tt_hadamard(y, y), 2, seed=-1),
             lambda: random_tt((3,), (1, 1), "uniform", -1),
             lambda: gaussian_tt((3,), (1, 1), seed=-1),
             lambda: derive_seed(-1, 2),
             lambda: fourier_tt((4, 4), 3, seed=-1),
             lambda: power_iteration_max(y, 2, max_iter=2, recompressor="hatt-2", seed=-1))
    for call in calls:
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            call()


@pytest.mark.parametrize("sweep", (
    lambda y, **kw: hatt(y, y, **kw),
    lambda y, **kw: rand_orth(tt_hadamard(y, y), **kw),
), ids=("hatt", "rand_orth"))
@pytest.mark.parametrize("extra", ({"targets": 1}, {"seed": 0}), ids=("targets", "seed"))
def test_sketch_tt_refuses_targets_and_seed(sweep, extra):
    # hatt(y, z, 1, seed=0, sketch_tt=s) returned the sketch's ranks (1, 3,
    # 3, 3, 1) and ignored both the target and the seed
    y = gaussian_tt((3,) * 4, (1, 2, 2, 2, 1), seed=1)
    sketch = gaussian_tt((3,) * 4, (1, 3, 3, 3, 1), seed=2)
    with pytest.raises(ValueError, match="^give sketch_tt or targets and seed, not both$"):
        sweep(y, sketch_tt=sketch, **extra)


TRAIN = gaussian_tt((4,) * 4, (1, 2, 2, 2, 1), seed=1)
ARRAY = np.zeros((4,) * 4)


# each raised an AttributeError naming `ranks`, `d`, `cores` or `shape`, or
# a shape mismatch for the sketch
@pytest.mark.parametrize("name, call", (
    ("y", lambda: hatt(ARRAY, TRAIN, 2, seed=0)),
    ("sketch_tt", lambda: hatt(TRAIN, TRAIN, sketch_tt=ARRAY[0])),
    ("a", lambda: rand_orth(ARRAY, 2, seed=0)),
    ("a", lambda: tt_rounding(ARRAY.tolist(), 2)),
    ("z", lambda: tt_dot(TRAIN, ARRAY)),
    ("y", lambda: tt_hadamard(ARRAY, ARRAY)),
    ("z", lambda: recompress_hadamard("hatt-2", TRAIN, ARRAY, 2, seed=0)),
    ("y", lambda: power_iteration_max(ARRAY, 2)),
    ("y", lambda: tt_norm(ARRAY)),
    ("z", lambda: tt_add(TRAIN, ARRAY)),
    ("y", lambda: tt_scale(ARRAY, 2.0)),
    ("x", lambda: tt_to_dense(ARRAY)),
    ("x_approx", lambda: relative_error(ARRAY, TRAIN)),
    ("x_ref", lambda: relative_error(TRAIN, ARRAY)),
    ("x", lambda: left_orthogonality_defect(ARRAY)),
    ("z", lambda: tt_hadamard_dot(TRAIN, TRAIN, ARRAY)),
    ("r", lambda: hpcrl(TRAIN, TRAIN, ARRAY)),
    ("a", lambda: partial_contraction_rl(ARRAY, TRAIN)),
), ids=("hatt", "hatt-sketch", "rand_orth", "tt_rounding", "tt_dot", "tt_hadamard",
        "recompress_hadamard", "power_iteration_max", "tt_norm", "tt_add", "tt_scale",
        "tt_to_dense", "relative_error", "relative_error-ref", "left_orthogonality_defect",
        "tt_hadamard_dot", "hpcrl", "partial_contraction_rl"))
def test_non_train_arguments_are_named_type_errors(name, call):
    with pytest.raises(TypeError, match=f"^{name} must be a TTTensor, got (ndarray|list)$"):
        call()


SHORT = gaussian_tt((4, 3, 4, 4), (1, 2, 2, 2, 1), seed=2)
SHAPES = (str(TRAIN.shape), str(SHORT.shape))


@pytest.mark.parametrize("call, names", (
    (lambda: tt_hadamard(TRAIN, SHORT), SHAPES),
    (lambda: tt_add(SHORT, TRAIN), SHAPES),
    (lambda: tt_dot(TRAIN, SHORT), SHAPES),
    (lambda: relative_error(TRAIN, SHORT), SHAPES),
    (lambda: relative_error(SHORT, tt_to_dense(TRAIN)), SHAPES),
    (lambda: tt_hadamard_dot(TRAIN, TRAIN, SHORT), SHAPES),
    (lambda: partial_contraction_rl(TRAIN, SHORT), SHAPES),
    (lambda: hpcrl(TRAIN, SHORT, TRAIN), SHAPES),
    (lambda: hpcrl(TRAIN, TRAIN, SHORT), SHAPES),
    (lambda: hatt(TRAIN, SHORT, 2, seed=0), SHAPES),
    (lambda: hatt(TRAIN, TRAIN, sketch_tt=SHORT), SHAPES),
    (lambda: rand_orth(TRAIN, sketch_tt=SHORT), SHAPES),
    (lambda: recompress_hadamard("hatt-2", SHORT, TRAIN, 2, seed=0), SHAPES),
    (lambda: contract_m_onto_pkp(np.ones((1, 4)), TRAIN.cores[1].values,
                                 SHORT.cores[1].values), ("mode mismatch 4 vs 3",)),
    (lambda: contract_m_onto_pkp(np.ones((1, 5)), TRAIN.cores[1].values,
                                 TRAIN.cores[1].values), ("(1, 5)", "2*2")),
    (lambda: contract_m_onto_pkp(np.ones((1, 4)), TRAIN.cores[1].values[0],
                                 TRAIN.cores[1].values), ("(4, 2)", "(2, 4, 2)")),
), ids=("tt_hadamard", "tt_add", "tt_dot", "relative_error", "relative_error-dense",
        "tt_hadamard_dot", "partial_contraction_rl", "hpcrl", "hpcrl-sketch", "hatt",
        "hatt-sketch", "rand_orth-sketch", "recompress_hadamard", "contract_m-mode",
        "contract_m-columns", "contract_m-ndim"))
def test_mismatched_arguments_are_value_errors_naming_both(call, names):
    """Every public function that takes two or more trains refuses trains of
    different shapes with a ValueError naming both shapes, and
    contract_m_onto_pkp refuses core arrays that are not 3-way or of
    different mode sizes, or a matrix whose columns do not match their
    ranks, naming both."""
    with pytest.raises(ValueError) as err:
        call()
    assert all(name in str(err.value) for name in names), str(err.value)


@pytest.mark.parametrize("bad", (2.5, float("inf"), float("nan"), "3"))
def test_generator_counts_must_be_whole_numbers(bad):
    # hilbert_tt(3, 2.5, 2) built mode size 3; the others raised TypeError
    # deep inside numpy or range()
    f = separable_tt(SeparableFunctionSpec("qing", 2, 4))
    calls = (lambda: hilbert_tt(3, bad, 2),
             lambda: hilbert_tt(bad, 3, 2),
             lambda: hilbert_tt(3, 3, bad),
             lambda: fourier_tt((4, 4), n_terms=bad),
             lambda: SeparableFunctionSpec("qing", 3, bad),
             lambda: SeparableFunctionSpec("qing", bad, 4),
             lambda: power_iteration_max(f, 2, max_iter=bad))
    for call in calls:
        with pytest.raises(ValueError, match="whole numbers"):
            call()
    assert hilbert_tt(3.0, np.int64(2), 2).shape == (2, 2, 2)
    spec = SeparableFunctionSpec("qing", 3.0, np.int64(4))
    assert (spec.d, spec.n) == (3, 4) and separable_tt(spec).shape == (4, 4, 4)
    assert power_iteration_max(f, 2, max_iter=2.0).iterations_used <= 2
