"""Robust pruning-mask search for dense classifiers, with probabilistic
certification of the deployed masked model."""

from .certify import PcaResult, SampleCert, paley_confidence, pca
from .config import ExperimentConfig, parse_config
from .datasets import Dataset, gen_synthetic, load_idx
from .masks import binarize, effective_ratio, init_percentile_scaled
from .model import LayerSpec, MaskableModel, load_checkpoint, save_checkpoint
from .objectives import StepReport, composite_step_loss
from .pipeline import run_experiment
from .transforms import CorruptionTag, TransformSpec

__version__ = "0.1.0"

__all__ = [
    "PcaResult", "SampleCert", "paley_confidence", "pca",
    "ExperimentConfig", "parse_config",
    "Dataset", "gen_synthetic", "load_idx",
    "binarize", "effective_ratio", "init_percentile_scaled",
    "LayerSpec", "MaskableModel", "load_checkpoint", "save_checkpoint",
    "StepReport", "composite_step_loss",
    "run_experiment",
    "CorruptionTag", "TransformSpec",
    "__version__",
]
