"""Multi-modal learning-to-hash toolkit.

Hadamard-derived hash centers supervise an alternating closed-form trainer
over kernelized features; an adaptive per-batch encoder hashes streaming
data, handling missing modalities; packed-bit Hamming ranking and mAP close
the retrieval loop. Everything is seeded and reproducible.
"""

from .bench import AblationResult, retrieval_map, run_ablation, sweep_delta, train_on_bundle
from .centers import (
    CenterAudit,
    HashCenterTable,
    assign_target_codes,
    audit_centers,
    build_center_table,
    lsh_reduce,
    required_order,
    sylvester_hadamard,
)
from .encoding import (
    EncodeResult,
    FailedBatch,
    QueryBatch,
    encode_adaptive,
    encode_fixed,
    encode_stream,
)
from .evaluation import (
    EvalReport,
    RankedRetrieval,
    average_precision,
    format_report,
    hamming_rank,
    mean_average_precision,
    report_key_values,
)
from .exceptions import (
    CenterSeparationError,
    CorruptFileError,
    DegenerateWeightError,
    EmptyBatchError,
    FusehashError,
    InvalidParameterError,
    LabelError,
    NumericalError,
    ShapeError,
)
from .kernel import AnchorSet, apply_kernel, select_anchors
from .packing import pack_codes, sign_to_pm1, unpack_codes
from .storage import (
    load_bundle,
    load_centers,
    load_codes,
    load_features,
    load_labels,
    load_model,
    store_bundle,
    store_centers,
    store_codes,
    store_features,
    store_model,
)
from .synth import DatasetBundle, SynthSpec, generate_synthetic, make_noisy_stream
from .training import (
    TrainConfig,
    TrainedModel,
    fit,
    fuse_encode_fixed,
    objective,
    update_projection,
    update_weights,
)

__version__ = "0.1.0"

__all__ = [
    "AblationResult",
    "AnchorSet",
    "CenterAudit",
    "CenterSeparationError",
    "CorruptFileError",
    "DatasetBundle",
    "DegenerateWeightError",
    "EmptyBatchError",
    "EncodeResult",
    "EvalReport",
    "FailedBatch",
    "FusehashError",
    "HashCenterTable",
    "InvalidParameterError",
    "LabelError",
    "NumericalError",
    "QueryBatch",
    "RankedRetrieval",
    "ShapeError",
    "SynthSpec",
    "TrainConfig",
    "TrainedModel",
    "apply_kernel",
    "assign_target_codes",
    "audit_centers",
    "average_precision",
    "build_center_table",
    "encode_adaptive",
    "encode_fixed",
    "encode_stream",
    "fit",
    "format_report",
    "fuse_encode_fixed",
    "generate_synthetic",
    "hamming_rank",
    "load_bundle",
    "load_centers",
    "load_codes",
    "load_features",
    "load_labels",
    "load_model",
    "lsh_reduce",
    "make_noisy_stream",
    "mean_average_precision",
    "objective",
    "pack_codes",
    "report_key_values",
    "required_order",
    "retrieval_map",
    "run_ablation",
    "select_anchors",
    "sign_to_pm1",
    "store_bundle",
    "store_centers",
    "store_codes",
    "store_features",
    "store_model",
    "sweep_delta",
    "sylvester_hadamard",
    "train_on_bundle",
    "unpack_codes",
    "update_projection",
    "update_weights",
    "__version__",
]
