"""hatt: tensor-train recompression with Hadamard-product avoidance.

The package provides TT tensors and their arithmetic, instrumented dense
kernels, seeded random TT generation, three recompression sweeps
(tt_rounding, rand_orth, hatt) with a leading-order flop model, desk-scale
experiment generators, and a benchmark CLI (``hatt-bench``).
"""

from .dense import DenseTensor, brute_force_max, hadamard_dense
from .limits import ResourceLimitError, core_limit, dense_cap, dense_limit
from .linalg import (
    FlopLedger,
    QrResult,
    SvdResult,
    econ_qr,
    matmul,
    tri_matmul,
    truncated_svd,
)
from .rand_tt import gaussian_tt, random_tt, uniform_chain
from .recompress import (
    ALGORITHMS,
    RECOMPRESSORS,
    RecompressReport,
    TargetRankWarning,
    contract_m_onto_pkp,
    flop_model,
    hatt,
    hpcrl,
    partial_contraction_rl,
    rand_orth,
    rank1_decompose,
    recompress_hadamard,
    tt_hadamard_dot,
    tt_rounding,
)
from .tt import (
    TTCore,
    TTTensor,
    h_unfold,
    left_orthogonality_defect,
    pkp_cores,
    relative_error,
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
