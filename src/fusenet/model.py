"""The fused classifier and its two single-source baselines.

Three branches feed one softmax head: a two-layer MLP over standardized
numerical activity features, a two-layer MLP over one-hot categorical
features, and a text branch (frozen embeddings -> BiLSTM -> attention).
Branch outputs are concatenated in the fixed order
[numerical, categorical, text]; the baselines drop branches and shrink
the head accordingly but reuse the identical layer code.

Checkpoints are a self-describing container: a diff-able text header
(format version, variant, config) followed by named parameter blocks of
little-endian float64, so save -> load round-trips bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddedSequence
from .layers import AllMaskedError, BiLstmEncoder, DenseLayer, FeedforwardAttention
from .numcore import Rng, ShapeError, softmax

FORMAT_VERSION = 1
_MAGIC = "afn-checkpoint"

VARIANTS = ("fusion", "mlp", "text")


class ConfigError(ValueError):
    pass


class ModelLoadError(ValueError):
    pass


class VersionError(ModelLoadError):
    pass


class CorruptModelError(ModelLoadError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    num_feature_dim: int
    cat_feature_dim: int
    embed_dim: int
    lstm_hidden: int = 64
    mlp_hidden: int = 64
    num_classes: int = 13
    max_seq_len: int = 100
    seed: int = 0
    mlp_activation: str = "relu"  # hidden activation of both tabular branches

    def __post_init__(self):
        dims = {
            "num_feature_dim": self.num_feature_dim,
            "cat_feature_dim": self.cat_feature_dim,
            "embed_dim": self.embed_dim,
            "lstm_hidden": self.lstm_hidden,
            "mlp_hidden": self.mlp_hidden,
            "max_seq_len": self.max_seq_len,
        }
        for name, value in dims.items():
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.mlp_activation not in ("relu", "tanh", "sigmoid"):
            raise ConfigError(f"unsupported mlp_activation {self.mlp_activation!r}")


@dataclass
class Prediction:
    probs: np.ndarray  # (C,), or (B, C) for a batch
    top_k: list  # class indices, or one list of them per batch row


def head_input_dim(config: ModelConfig, variant: str) -> int:
    text = 2 * config.lstm_hidden
    tabular = 2 * config.mlp_hidden
    return {"fusion": tabular + text, "mlp": tabular, "text": text}[variant]


class FusionModel:
    """Parameters of one variant; immutable during forward/backward."""

    def __init__(self, config: ModelConfig, variant: str, mlp_num, mlp_cat,
                 encoder, attention, head: DenseLayer):
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}")
        self.config = config
        self.variant = variant
        self.mlp_num = mlp_num
        self.mlp_cat = mlp_cat
        self.encoder = encoder
        self.attention = attention
        self.head = head
        self.validate_shapes()

    @property
    def uses_tabular(self) -> bool:
        return self.variant in ("fusion", "mlp")

    @property
    def uses_text(self) -> bool:
        return self.variant in ("fusion", "text")

    def validate_shapes(self) -> None:
        cfg = self.config
        if self.uses_tabular:
            for branch, name, in_dim in (
                (self.mlp_num, "mlp_num", cfg.num_feature_dim),
                (self.mlp_cat, "mlp_cat", cfg.cat_feature_dim),
            ):
                if branch is None or len(branch) != 2:
                    raise ConfigError(f"{name}: expected two dense layers")
                if branch[0].in_dim != in_dim or branch[0].out_dim != cfg.mlp_hidden:
                    raise ConfigError(
                        f"{name}.0: got {branch[0].in_dim}x{branch[0].out_dim}, "
                        f"expected {in_dim}x{cfg.mlp_hidden}"
                    )
                if branch[1].in_dim != cfg.mlp_hidden or branch[1].out_dim != cfg.mlp_hidden:
                    raise ConfigError(f"{name}.1: inconsistent with mlp_hidden {cfg.mlp_hidden}")
        if self.uses_text:
            if self.encoder is None or self.attention is None:
                raise ConfigError("text branch requires encoder and attention")
            if self.encoder.input_dim != cfg.embed_dim or self.encoder.hidden_dim != cfg.lstm_hidden:
                raise ConfigError(
                    f"encoder dims {self.encoder.input_dim}/{self.encoder.hidden_dim} "
                    f"vs config {cfg.embed_dim}/{cfg.lstm_hidden}"
                )
            if self.attention.w.shape[0] != 2 * cfg.lstm_hidden:
                raise ConfigError(
                    f"attention width {self.attention.w.shape[0]} vs {2 * cfg.lstm_hidden}"
                )
        expected = head_input_dim(cfg, self.variant)
        if self.head.in_dim != expected or self.head.out_dim != cfg.num_classes:
            raise ConfigError(
                f"head: got {self.head.in_dim}x{self.head.out_dim}, "
                f"expected {expected}x{cfg.num_classes}"
            )
        if self.head.activation != "identity":
            raise ConfigError("head must use identity activation (softmax is applied after)")

    def param_blocks(self) -> list[tuple[str, np.ndarray]]:
        """All learnable parameters as (name, array), in the serialized order."""
        blocks: list[tuple[str, np.ndarray]] = []
        if self.uses_tabular:
            for branch_name, branch in (("mlp_num", self.mlp_num), ("mlp_cat", self.mlp_cat)):
                for idx, layer in enumerate(branch):
                    for pname, arr in layer.params().items():
                        blocks.append((f"{branch_name}.{idx}.{pname}", arr))
        if self.uses_text:
            for pname, arr in self.encoder.params().items():
                blocks.append((f"encoder.{pname}", arr))
            for pname, arr in self.attention.params().items():
                blocks.append((f"attention.{pname}", arr))
        for pname, arr in self.head.params().items():
            blocks.append((f"head.{pname}", arr))
        return blocks

    def set_param_blocks(self, values: dict[str, np.ndarray]) -> None:
        """Overwrite parameters in place from a name -> array mapping."""
        for name, arr in self.param_blocks():
            new = values[name]
            if new.shape != arr.shape:
                raise ShapeError(f"{name}: got {new.shape}, expected {arr.shape}")
            arr[...] = new

    def copy_param_blocks(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self.param_blocks()}


def _init_branch(rng: Rng, in_dim: int, hidden: int, activation: str) -> list[DenseLayer]:
    return [
        DenseLayer.init(rng, in_dim, hidden, activation),
        DenseLayer.init(rng, hidden, hidden, activation),
    ]


def build_variant(config: ModelConfig, variant: str, rng: Rng | None = None) -> FusionModel:
    """A fresh model of ``variant``, seeded by ``config.seed`` unless ``rng`` is given."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    rng = rng if rng is not None else Rng(config.seed)
    mlp_num = mlp_cat = encoder = attention = None
    if variant in ("fusion", "mlp"):
        act = config.mlp_activation
        mlp_num = _init_branch(rng.child(0), config.num_feature_dim, config.mlp_hidden, act)
        mlp_cat = _init_branch(rng.child(1), config.cat_feature_dim, config.mlp_hidden, act)
    if variant in ("fusion", "text"):
        encoder = BiLstmEncoder.init(rng.child(2), config.embed_dim, config.lstm_hidden)
        attention = FeedforwardAttention.init(rng.child(3), 2 * config.lstm_hidden)
    head = DenseLayer.init(rng.child(4), head_input_dim(config, variant),
                           config.num_classes, "identity")
    return FusionModel(config, variant, mlp_num, mlp_cat, encoder, attention, head)


def _run_branch(branch: list[DenseLayer], x: np.ndarray):
    caches = []
    out = x
    for layer in branch:
        out, cache = layer.forward(out)
        caches.append(cache)
    return out, caches


def _branch_backward(branch: list[DenseLayer], caches, dout: np.ndarray, prefix: str, grads: dict):
    d = dout
    for idx in range(len(branch) - 1, -1, -1):
        d, layer_grads = branch[idx].backward(caches[idx], d)
        for pname, arr in layer_grads.items():
            grads[f"{prefix}.{idx}.{pname}"] = arr
    return d


def forward(model: FusionModel, num_x=None, cat_x=None, seq: EmbeddedSequence | None = None,
            k: int | None = None, dropout_rate: float = 0.0, drop_rng: Rng | None = None,
            example_id=None):
    """Run one example, or a batch of them, through the branches and softmax head.

    A batch has a leading axis of B rows: ``num_x`` is (B, num_dim),
    ``cat_x`` (B, cat_dim), and ``seq`` holds (B, T, embed_dim) vectors
    with a (B, T) mask (rows of ``PreparedDataset.seqs``, for one). Then the
    prediction's probs are (B, C), its top_k has one list per row, and
    ``example_id`` may be a list naming each row.

    Returns (Prediction, cache); the cache carries everything backward()
    needs. The prediction's top_k defaults to min(3, num_classes) entries.
    Dropout (inverted, per branch output) is applied only when a rate and
    rng are given, i.e. during training. Its masks are drawn row by row,
    so a batch sees the same masks as its rows run one at a time in order.
    """
    cfg = model.config
    if k is None:
        k = min(3, cfg.num_classes)
    outputs = []  # (segment name, branch output, branch cache)

    if model.uses_tabular:
        if num_x is None or cat_x is None:
            raise ShapeError(f"variant {model.variant!r} requires numerical and categorical inputs")
        if num_x.ndim not in (1, 2) or num_x.shape[-1] != cfg.num_feature_dim:
            raise ShapeError(f"numerical input {num_x.shape} vs ({cfg.num_feature_dim},)")
        if cat_x.shape != num_x.shape[:-1] + (cfg.cat_feature_dim,):
            raise ShapeError(f"categorical input {cat_x.shape} vs ({cfg.cat_feature_dim},)")
        outputs.append(("mlp_num", *_run_branch(model.mlp_num, num_x)))
        outputs.append(("mlp_cat", *_run_branch(model.mlp_cat, cat_x)))

    if model.uses_text:
        if seq is None:
            raise ShapeError(f"variant {model.variant!r} requires an embedded sequence")
        if model.uses_tabular and seq.vectors.shape[:-2] != num_x.shape[:-1]:
            raise ShapeError(f"sequence batch {seq.vectors.shape} vs features {num_x.shape}")
        try:
            H, enc_cache = model.encoder.forward(seq.vectors)
            a, _alphas, attn_cache = model.attention.forward(H, seq.mask)
        except AllMaskedError as err:
            if example_id is None:
                raise
            if not isinstance(example_id, str):
                example_id = example_id[int(np.argmin(seq.mask.any(axis=-1)))]
            raise AllMaskedError(f"example {example_id}: {err}") from err
        outputs.append(("text", a, {"encoder": enc_cache, "attention": attn_cache}))

    parts = [out for _, out, _ in outputs]
    widths = [out.shape[-1] for out in parts]
    drop_masks = [None] * len(parts)
    if dropout_rate > 0.0 and drop_rng is not None:
        keep = 1.0 - dropout_rate
        masks = (drop_rng.random(parts[0].shape[:-1] + (sum(widths),)) < keep) / keep
        drop_masks = np.split(masks, np.cumsum(widths)[:-1], axis=-1)
        parts = [part * mask for part, mask in zip(parts, drop_masks)]
    cache: dict = {"segments": [(name, w) for (name, _, _), w in zip(outputs, widths)],
                   "drop_masks": drop_masks}
    for name, _, branch_cache in outputs:
        cache[name] = branch_cache

    c = np.concatenate(parts, axis=-1)
    logits, head_cache = model.head.forward(c)
    probs = softmax(logits)
    cache["head"] = head_cache
    cache["logits"] = logits
    return Prediction(probs=probs, top_k=topk_indices(probs, k)), cache


def backward(model: FusionModel, cache, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Parameter gradients keyed like param_blocks(), summed over batch rows."""
    grads: dict[str, np.ndarray] = {}
    dc, head_grads = model.head.backward(cache["head"], dlogits)
    for pname, arr in head_grads.items():
        grads[f"head.{pname}"] = arr

    offset = 0
    for (name, width), drop_mask in zip(cache["segments"], cache["drop_masks"]):
        dseg = dc[..., offset : offset + width]
        offset += width
        if drop_mask is not None:
            dseg = dseg * drop_mask
        if name == "mlp_num":
            _branch_backward(model.mlp_num, cache[name], dseg, "mlp_num", grads)
        elif name == "mlp_cat":
            _branch_backward(model.mlp_cat, cache[name], dseg, "mlp_cat", grads)
        else:
            dH, attn_grads = model.attention.backward(cache["text"]["attention"], dseg)
            for pname, arr in attn_grads.items():
                grads[f"attention.{pname}"] = arr
            _dX, enc_grads = model.encoder.backward(cache["text"]["encoder"], dH)
            for pname, arr in enc_grads.items():
                grads[f"encoder.{pname}"] = arr
    return grads


def topk_indices(probs: np.ndarray, k: int):
    """Indices of the k largest entries; ties go to the lower index.

    For (B, C) probabilities, one list per row.
    """
    if not 1 <= k <= probs.shape[-1]:
        raise ValueError(f"k must be in [1, {probs.shape[-1]}], got {k}")
    return np.argsort(-probs, axis=-1, kind="stable")[..., :k].tolist()


def predict_topk(model: FusionModel, num_x=None, cat_x=None, seq=None, k: int = 3,
                 example_id: str | None = None) -> Prediction:
    if not 1 <= k <= model.config.num_classes:
        raise ValueError(f"k must be in [1, {model.config.num_classes}], got {k}")
    pred, _ = forward(model, num_x, cat_x, seq, k=k, example_id=example_id)
    return pred


_CONFIG_FIELDS = ("num_feature_dim", "cat_feature_dim", "embed_dim", "lstm_hidden",
                  "mlp_hidden", "num_classes", "max_seq_len", "seed", "mlp_activation")
_STR_CONFIG_FIELDS = ("mlp_activation",)


def save(model: FusionModel, path) -> None:
    blocks = model.param_blocks()
    with open(path, "wb") as fh:
        lines = [f"{_MAGIC} {FORMAT_VERSION}", f"variant {model.variant}"]
        for field in _CONFIG_FIELDS:
            lines.append(f"{field} {getattr(model.config, field)}")
        lines.append(f"blocks {len(blocks)}")
        lines.append("end-header")
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
        for name, arr in blocks:
            shape = " ".join(str(d) for d in arr.shape)
            fh.write(f"block {name} {shape}\n".encode("ascii"))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_line(fh, what: str) -> str:
    raw = fh.readline()
    if not raw:
        raise CorruptModelError(f"file ends before {what}")
    return raw.decode("ascii").rstrip("\n")


def load(path) -> FusionModel:
    with open(path, "rb") as fh:
        first = _read_line(fh, "header").split()
        if len(first) != 2 or first[0] != _MAGIC:
            raise ModelLoadError(f"not a checkpoint file: first line {first!r}")
        if first[1] != str(FORMAT_VERSION):
            raise VersionError(
                f"checkpoint format version {first[1]} unsupported (expected {FORMAT_VERSION})"
            )
        header: dict[str, str] = {}
        while True:
            line = _read_line(fh, "end of header")
            if line == "end-header":
                break
            key, _, value = line.partition(" ")
            header[key] = value
        try:
            variant = header["variant"]
            config = ModelConfig(**{
                f: (header[f] if f in _STR_CONFIG_FIELDS else int(header[f]))
                for f in _CONFIG_FIELDS
            })
            n_blocks = int(header["blocks"])
        except KeyError as err:
            raise ModelLoadError(f"header missing field {err.args[0]!r}")
        except (ValueError, ConfigError) as err:
            raise ModelLoadError(f"bad header: {err}")
        if variant not in VARIANTS:
            raise ModelLoadError(f"unknown variant {variant!r}")

        skeleton = build_variant(config, variant)
        expected = skeleton.param_blocks()
        if n_blocks != len(expected):
            raise ModelLoadError(
                f"header declares {n_blocks} blocks, variant {variant!r} has {len(expected)}"
            )
        values: dict[str, np.ndarray] = {}
        for name, ref in expected:
            decl = _read_line(fh, f"block {name}").split()
            if len(decl) < 2 or decl[0] != "block":
                raise CorruptModelError(f"expected a block declaration, got {decl!r}")
            if decl[1] != name:
                raise ModelLoadError(f"block order mismatch: got {decl[1]!r}, expected {name!r}")
            shape = tuple(int(d) for d in decl[2:])
            if shape != ref.shape:
                raise ModelLoadError(f"{name}: file shape {shape}, expected {ref.shape}")
            nbytes = int(np.prod(shape)) * 8
            payload = fh.read(nbytes)
            if len(payload) != nbytes:
                raise CorruptModelError(
                    f"{name}: truncated payload ({len(payload)} of {nbytes} bytes)"
                )
            arr = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(shape)
            if not np.all(np.isfinite(arr)):
                raise ModelLoadError(f"{name}: non-finite parameter values")
            values[name] = arr
        if fh.read(1):
            raise CorruptModelError("trailing bytes after final block")

    skeleton.set_param_blocks(values)
    skeleton.validate_shapes()
    return skeleton


def clone(model: FusionModel) -> FusionModel:
    """Fresh model of the same variant/config with copied parameters."""
    out = build_variant(model.config, model.variant)
    out.set_param_blocks(model.copy_param_blocks())
    return out

