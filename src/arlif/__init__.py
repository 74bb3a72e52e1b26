"""ARLIF: streaming intrusion detection.

Isolation-forest per-tree anomaly probabilities, fused over a sliding
k-step history by a single attention layer that is the only thing trained
— online, one SGD step per labeled sample.
"""

from .attention import (
    EPS,
    AttentionParams,
    ForwardCache,
    backward,
    bce_loss,
    forward,
    init_params,
    param_count,
    sgd_step,
    softmax_rows,
)
from .detector import (
    DetectionResult,
    Detector,
    TrainingReport,
    attention_params_bytes,
    forest_bytes,
    learn,
    load_model,
    model_size_bytes,
    new_detector,
    observe,
    observe_block,
    save_model,
    to_bytes,
    train_online,
)
from .errors import (
    ArlifError,
    BadMagic,
    CorruptModel,
    DimensionMismatch,
    Diverged,
    Empty,
    EmptyStream,
    FieldCountMismatch,
    InsufficientData,
    LengthMismatch,
    NumericParse,
    SingleClass,
    StaleCache,
    TruncatedFile,
    VersionUnsupported,
)
from .iforest import (
    IsolationForest,
    build_forest,
    build_tree,
    c_factor,
    forest_probas,
    forest_score,
    path_length,
    tree_proba,
)
from .ingest import (
    CATEGORICAL_COLUMNS,
    N_FEATURES,
    Preprocessor,
    Record,
    fit_preprocessor,
    load_records,
    parse_record,
    rank_features,
    transform,
)
from .metrics import (
    Confusion,
    EvalReport,
    confusion_matrix,
    evaluate,
    f1_score,
    precision_score,
    recall_score,
    tune_baseline_threshold,
)

__version__ = "0.1.0"
