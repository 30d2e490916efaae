"""minifp: desk-scale molecular fingerprinting.

Parse SMILES into molecular graphs, compute structural encodings, pre-train
small multi-task GNN backbones (GCN, GINE, MPNN++) on a from-scratch
reverse-mode tensor engine, pool final node embeddings into fingerprints,
and train/ensemble downstream MLP heads on them.
"""

from .backbones import ModelConfig, build_model, count_parameters, default_config, forward, pool
from .downstream import (
    HeadConfig,
    TaskData,
    auprc,
    auroc,
    correlation_analysis,
    kfold_ensemble,
    spearman_rho,
    sweep,
    train_head,
)
from .encodings import assemble, laplacian_encoding, normalized_laplacian, random_walk_encoding
from .fingerprints import FingerprintStore, extract_fingerprints, store_read, store_write
from .molgraph import (
    MolecularGraph,
    heavy_atom_count,
    normalize_smiles,
    parse_smiles,
)
from .multitask import LabelSet, LossWeights, TaskSpec, combined_loss
from .trainer import SplitSpec, TrainConfig, pretrain, split_dataset

__version__ = "0.1.0"

__all__ = [
    "FingerprintStore",
    "HeadConfig",
    "LabelSet",
    "LossWeights",
    "ModelConfig",
    "MolecularGraph",
    "SplitSpec",
    "TaskData",
    "TaskSpec",
    "TrainConfig",
    "assemble",
    "auprc",
    "auroc",
    "build_model",
    "combined_loss",
    "correlation_analysis",
    "count_parameters",
    "default_config",
    "extract_fingerprints",
    "forward",
    "heavy_atom_count",
    "kfold_ensemble",
    "laplacian_encoding",
    "normalize_smiles",
    "normalized_laplacian",
    "parse_smiles",
    "pool",
    "pretrain",
    "random_walk_encoding",
    "spearman_rho",
    "split_dataset",
    "store_read",
    "store_write",
    "sweep",
    "train_head",
]
