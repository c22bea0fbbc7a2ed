"""Siamese contrastive embeddings for imbalanced tabular binary classification,
plus a weighted-crossentropy baseline, on a from-scratch dense-network engine."""

from .data import (
    ColumnSpec,
    FeatureTable,
    NormStats,
    RawTable,
    apply_norm,
    fit_norm,
    framingham_schema,
    impute,
    load_csv,
    stratified_split,
    synth_generate,
    to_features,
)
from .nn import (
    LayerSpec,
    NetworkSpec,
    OptimizerState,
    ParamSet,
    adam_step,
    backward,
    bce_loss,
    contrastive_loss,
    euclidean_distance,
    forward,
    infer,
    init_optimizer,
    init_params,
    rmsprop_step,
)
from .pairs import PairSet, generate_pairs, split_by_label, split_pairs
from .siamese import (
    ReferenceBank,
    SiameseModel,
    build_reference_bank,
    classify_table,
    pair_backward,
    pair_forward,
)
from .train import (
    EvalReport,
    History,
    TrainConfig,
    base_config,
    base_network_spec,
    embed_rows,
    evaluate_classifier,
    evaluate_pairs,
    export_history,
    siamese_config,
    siamese_network_spec,
    train_base,
    train_siamese,
)

__version__ = "0.1.0"
