"""Fused tabular + text inquiry classifier, trained from scratch on numpy.

Three branches feed one softmax head over 13 inquiry topics: two small
MLPs over activity features (numerical, one-hot categorical) and a text
branch that embeds, encodes with a bidirectional LSTM, and reduces with
feedforward attention. Single-source baselines reuse the same layers so
comparisons isolate the architecture. Everything differentiable ships
with an exact analytic backward pass, checked against central finite
differences.
"""

from .dataset import CLASS_NAMES, Example, FeaturePipeline, load_jsonl, save_jsonl, split
from .embeddings import EmbeddedSequence, EmbeddingTable, embed_sequence, load_vec_file
from .metrics import EvalReport, report, topk_accuracy, topk_recall
from .model import (FusionModel, ModelConfig, Prediction, build_variant, forward, load,
                    predict_topk, save)
from .numcore import Rng, affine, sigmoid, softmax
from .synth import generate_synthetic
from .textprep import TokenSequence, normalize, tokenize
from .training import TrainConfig, TrainReport, cross_entropy, grad_check, train

__version__ = "0.1.0"

__all__ = [
    "CLASS_NAMES", "Example", "FeaturePipeline", "load_jsonl", "save_jsonl", "split",
    "EmbeddedSequence", "EmbeddingTable", "embed_sequence", "load_vec_file",
    "EvalReport", "report", "topk_accuracy", "topk_recall",
    "FusionModel", "ModelConfig", "Prediction", "build_variant", "forward", "load",
    "predict_topk", "save",
    "Rng", "affine", "sigmoid", "softmax",
    "generate_synthetic",
    "TokenSequence", "normalize", "tokenize",
    "TrainConfig", "TrainReport", "cross_entropy", "grad_check", "train",
    "__version__",
]
