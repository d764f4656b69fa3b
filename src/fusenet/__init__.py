"""Fused tabular + text inquiry classifier, trained from scratch on numpy.

Three branches feed one softmax head over 13 inquiry topics: two small
MLPs over activity features (numerical, one-hot categorical) and a text
branch that embeds, encodes with a bidirectional LSTM, and reduces with
feedforward attention. Single-source baselines reuse the same layers so
comparisons isolate the architecture. Everything differentiable ships
with an exact analytic backward pass, checked against central finite
differences.
"""

import importlib

from .dataset import CLASS_NAMES, Example, FeaturePipeline, load_jsonl, save_jsonl, split
from .embeddings import EmbeddedSequence, EmbeddingTable, embed_sequence, load_vec_file
from .metrics import EvalReport, report, topk_accuracy
from .model import (FusionModel, ModelConfig, Prediction, build_variant, forward, load,
                    predict_topk, save)
from .numcore import Rng, affine, sigmoid, softmax
from .textprep import TokenSequence, normalize, tokenize
from .training import TrainConfig, TrainReport, train

__version__ = "0.1.0"

__all__ = [
    "CLASS_NAMES", "Example", "FeaturePipeline", "load_jsonl", "save_jsonl", "split",
    "EmbeddedSequence", "EmbeddingTable", "embed_sequence", "load_vec_file",
    "EvalReport", "report", "topk_accuracy",
    "FusionModel", "ModelConfig", "Prediction", "build_variant", "forward", "load",
    "predict_topk", "save",
    "Rng", "affine", "sigmoid", "softmax",
    "generate_synthetic",
    "TokenSequence", "normalize", "tokenize",
    "TrainConfig", "TrainReport", "grad_check", "train",
    "__version__",
]


def __getattr__(name: str):
    # ``synth`` and ``gradcheck`` load on first use: train, eval and predict never run them.
    if name in ("synth", "generate_synthetic"):
        synth = importlib.import_module(".synth", __name__)
        return synth if name == "synth" else synth.generate_synthetic
    if name == "grad_check":
        return importlib.import_module(".gradcheck", __name__).grad_check
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
