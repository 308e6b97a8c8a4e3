"""hatt: tensor-train recompression with Hadamard-product avoidance.

The package provides TT tensors and their arithmetic, instrumented dense
kernels, seeded random TT generation, three recompression sweeps
(tt_rounding, rand_orth, hatt) with a leading-order flop model, desk-scale
experiment generators, and a benchmark CLI (``hatt-bench``).
"""

from .dense import DenseTensor, brute_force_max, hadamard_dense
from .limits import (
    ResourceLimitError,
    core_cap,
    core_limit,
    dense_cap,
    dense_limit,
    set_core_cap,
    set_dense_cap,
)
from .linalg import (
    FlopLedger,
    QrResult,
    SvdResult,
    econ_qr,
    matmul,
    tri_matmul,
    truncated_svd,
)
from .rand_tt import RandomSpec, gaussian_tt, random_tt, uniform_chain, uniform_tt
from .recompress import (
    ALGORITHMS,
    DIRECT,
    RECOMPRESSORS,
    Rank1Rep,
    Rank1Variant,
    RecompressReport,
    SketchSet,
    TargetRankWarning,
    contract_m_onto_pkp,
    flop_model,
    hatt,
    hpcrl,
    partial_contraction_rl,
    predicted_flops,
    rand_orth,
    rank1_decompose,
    recompress_hadamard,
    svd_variant,
    tt_hadamard_dot,
    tt_rounding,
)
from .tt import (
    TTCore,
    TTTensor,
    h_unfold,
    left_orthogonality_defect,
    load_tt,
    partial_contracted_product,
    pkp_cores,
    relative_error,
    save_tt,
    tt_add,
    tt_dot,
    tt_hadamard,
    tt_norm,
    tt_ones,
    tt_scale,
    tt_to_dense,
    v_unfold,
)
from .apps import (
    FourierSpec,
    PowerIterResult,
    SeparableFunctionSpec,
    fourier_tt,
    hilbert_tt,
    power_iteration_max,
    separable_dense,
    separable_tt,
    tt_svd,
)

__version__ = "0.1.0"
