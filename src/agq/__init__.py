"""Activation-guided low-bit quantization toolkit.

Uniform and log2 quantizers, per-channel power-of-two refinement applied as
exact integer shifts of prepared 4-bit weight codes (8-bit sites) or repeated
lane channels (4-bit sites), attention-importance token pruning, a bit-exact
packed INT4 lane GEMM, and a toy causal decoder block that ties them together.
``forward_block`` is the one block pass: with ``replace(cfg, sites={})`` it is
the FP32 reference, and a ``trace`` list collects per-site MSE records.
Each site's ``SiteConfig`` sets only its precision and TRIP cap; the site
fixes the quantizer. ``fold_trip_into_weights`` is a float reference for the
shift identity.
"""

from .kernels import (
    AccumulatorBudgetError,
    Int4GemmParams,
    LaneAccumulator,
    PackedInt4Matrix,
    gemm_f32,
    gemm_int4_packed,
    gemm_int4_raw,
    gemm_int_affine,
    gemm_log2_attnv,
    lane_multiply,
    pack_int4,
    pack_weights_for_gemm,
    unpack_int4,
)
from .pipeline import (
    POST_ATTENTION_SITES,
    SITES,
    Block,
    BlockConfig,
    OutlierReport,
    PipelineError,
    SiteConfig,
    analyze_outliers,
    attention_locality,
    cosine_similarity,
    forward_block,
    forward_stack,
    init_block,
    init_stack,
    make_outlier_input,
    make_stripe_input,
    preset_sites,
)
from .pruning import (
    AttentionStats,
    PruneSchedule,
    default_start_layer,
    make_schedule,
    prune_step,
    score_tokens,
    sparsity,
)
from .quantizers import (
    AffineParams,
    ChannelSymmetricParams,
    CodeRange,
    Log2Params,
    QuantError,
    QuantTensor,
    dequantize_affine,
    dequantize_log2,
    dequantize_weight_symmetric,
    fit_affine,
    fit_weight_symmetric,
    quantize_affine,
    quantize_log2,
    quantize_weight_symmetric,
)
from .tensor_store import load_store, save_store, slice_rows
from .trip import TripParams, dequantize_trip, fit_trip, fold_trip_into_weights, quantize_trip

__version__ = "0.1.0"
