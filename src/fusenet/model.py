"""The fused classifier and its two single-source baselines.

Three branches feed one softmax head: a two-layer MLP over standardized
numerical activity features, a two-layer MLP over one-hot categorical
features, and a text branch (frozen embeddings -> BiLSTM -> attention).
Branch outputs are concatenated in the fixed order
[numerical, categorical, text]; the baselines drop branches and shrink
the head accordingly but reuse the identical layer code.

All parameters live in one float64 vector, ``theta``; every layer array
is a view of it, and ``backward`` concatenates the layers' gradients into
one vector of the same layout. A model built on any such vector (a
gradient, say) names its blocks: ``param_blocks(vec)`` and
``grad_blocks(grad)`` are the block views of one.

Checkpoints are a self-describing container: a diff-able text header
(format version, variant, config) followed by named parameter blocks of
little-endian float64, so save -> load round-trips bit-exactly. A block
is a layer array, except that each fused LSTM matrix and bias is stored
as one block per gate (``_checkpoint_blocks``). The loader checks the
size the header implies against the file before it allocates ``theta``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddedSequence
from .layers import BiLstmEncoder, DenseLayer, FeedforwardAttention, LstmCell
from .numcore import Rng, ShapeError, softmax

FORMAT_VERSION = 1
_MAGIC = "afn-checkpoint"

VARIANTS = ("fusion", "mlp", "text")

# Why a row of probabilities that is not all finite is refused: softmax of
# finite logits is finite, so its inputs or parameters overflowed.
NON_FINITE_PROBS = "class probabilities are not finite (the model's inputs or parameters overflow)"


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
    """One example's class probabilities and its k most probable classes."""

    probs: np.ndarray  # (C,)
    top_k: list[int]  # class indices, most probable first


def head_input_dim(config: ModelConfig, variant: str) -> int:
    text = 2 * config.lstm_hidden
    tabular = 2 * config.mlp_hidden
    return {"fusion": tabular + text, "mlp": tabular, "text": text}[variant]


def _array_shapes(config: ModelConfig, variant: str) -> list[tuple[int, ...]]:
    """Shapes of the layer arrays in ``theta`` order: each layer's weight, then its bias."""
    shapes: list[tuple[int, ...]] = []
    if variant in ("fusion", "mlp"):
        h = config.mlp_hidden
        for in_dim in (config.num_feature_dim, config.cat_feature_dim):
            shapes += [(in_dim, h), (h,), (h, h), (h,)]
    if variant in ("fusion", "text"):
        E, H = config.embed_dim, config.lstm_hidden
        shapes += [(H + E, 4 * H), (4 * H,)] * 2 + [(2 * H,), (1,)]
    return shapes + [(head_input_dim(config, variant), config.num_classes), (config.num_classes,)]


def param_count(config: ModelConfig, variant: str) -> int:
    """Length of the flat parameter vector of ``variant`` at ``config``."""
    return sum(math.prod(shape) for shape in _array_shapes(config, variant))


def _checkpoint_blocks(name: str, arr: np.ndarray) -> list[tuple[str, np.ndarray]]:
    """The checkpoint blocks of one layer array: the array itself, except that
    a fused LSTM ``W_all``/``b_all`` becomes its four gate column views,
    ``W_i`` ... ``W_q`` or ``b_i`` ... ``b_q`` in GATES order."""
    stem, _, kind = name.rpartition(".")
    if kind not in ("W_all", "b_all"):
        return [(name, arr)]
    return [(f"{stem}.{kind[0]}_{gate}", part)
            for gate, part in zip(LstmCell.GATES, np.split(arr, 4, axis=-1))]


def _named_blocks(layers) -> list[tuple[str, np.ndarray]]:
    """The checkpoint blocks of (block-name prefix, layer) pairs, in their order."""
    return [block for prefix, layer in layers for pname, fused in layer.params().items()
            for block in _checkpoint_blocks(f"{prefix}.{pname}", fused)]


def _check_flat(vec: np.ndarray, size: int, what: str) -> None:
    if vec.dtype != np.float64 or vec.shape != (size,) or not vec.flags.c_contiguous:
        raise ShapeError(f"{what}: {vec.dtype} {vec.shape}, not contiguous float64 ({size},)")


class FusionModel:
    """The layers of one variant, every layer array a view of the flat ``theta``.

    Parameters are immutable during forward/backward.
    """

    def __init__(self, config: ModelConfig, variant: str, theta: np.ndarray):
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}")
        shapes = _array_shapes(config, variant)
        sizes = [math.prod(shape) for shape in shapes]
        _check_flat(theta, sum(sizes), f"theta of variant {variant!r}")
        self.config = config
        self.variant = variant
        self.theta = theta
        arrays = iter(part.reshape(shape) for part, shape
                      in zip(np.split(theta, np.cumsum(sizes)[:-1]), shapes))
        pairs = zip(arrays, arrays)  # (weight, bias) of each layer in turn
        self.mlp_num = self.mlp_cat = self.encoder = self.attention = None
        if self.uses_tabular:
            act = config.mlp_activation
            self.mlp_num = [DenseLayer(*next(pairs), act) for _ in range(2)]
            self.mlp_cat = [DenseLayer(*next(pairs), act) for _ in range(2)]
        if self.uses_text:
            self.encoder = BiLstmEncoder(LstmCell(*next(pairs)), LstmCell(*next(pairs)))
            self.attention = FeedforwardAttention(*next(pairs))
        self.head = DenseLayer(*next(pairs), "identity")
        self._branches = []
        if self.uses_tabular:
            self._branches += [[(f"{name}.{idx}", layer) for idx, layer
                                in enumerate(getattr(self, name))]
                               for name in ("mlp_num", "mlp_cat")]
        if self.uses_text:
            self._branches.append([("encoder", self.encoder), ("attention", self.attention)])
        self._branches.append([("head", self.head)])

    @property
    def uses_tabular(self) -> bool:
        return self.variant in ("fusion", "mlp")

    @property
    def uses_text(self) -> bool:
        return self.variant in ("fusion", "text")

    def branches(self) -> list[list[tuple[str, object]]]:
        """(block-name prefix, layer) of each branch in head-input order, then of the head.

        The list is built once, by ``__init__``; callers must not change it.
        """
        return self._branches

    def param_blocks(self, vec: np.ndarray | None = None) -> list[tuple[str, np.ndarray]]:
        """All learnable parameters as (name, view of theta), in the serialized order.

        Given ``vec``, a vector laid out like ``theta`` (a gradient, say),
        the same-named views of ``vec`` instead: the blocks of a model of
        this variant and config built on ``vec``. An LSTM gate block is a
        column view of its direction's fused matrix.
        """
        model = self if vec is None else FusionModel(self.config, self.variant, vec)
        return _named_blocks(pair for branch in model.branches() for pair in branch)

    def grad_blocks(self, grad: np.ndarray) -> dict[str, np.ndarray]:
        """Named views of ``grad`` in the order backward() computes them: the head,
        then each branch from its last layer to its first. The pre-clip norm
        sums per-block terms in this order, so clipping keeps its exact values.
        """
        *branches, head = FusionModel(self.config, self.variant, grad).branches()
        return dict(_named_blocks(head + [pair for branch in branches for pair in branch[::-1]]))


def build_variant(config: ModelConfig, variant: str) -> FusionModel:
    """A fresh model of ``variant``, seeded by ``config.seed``."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    rng = Rng(config.seed)
    fresh = []
    if variant in ("fusion", "mlp"):
        h, act = config.mlp_hidden, config.mlp_activation
        for key, in_dim in enumerate((config.num_feature_dim, config.cat_feature_dim)):
            branch_rng = rng.child(key)
            fresh += [DenseLayer.init(branch_rng, in_dim, h, act),
                      DenseLayer.init(branch_rng, h, h, act)]
    if variant in ("fusion", "text"):
        fresh += [BiLstmEncoder.init(rng.child(2), config.embed_dim, config.lstm_hidden),
                  FeedforwardAttention.init(rng.child(3), 2 * config.lstm_hidden)]
    fresh.append(DenseLayer.init(rng.child(4), head_input_dim(config, variant),
                                 config.num_classes, "identity"))
    theta = np.concatenate([arr.ravel() for layer in fresh for arr in layer.params().values()])
    return FusionModel(config, variant, theta)


def _run_branch(branch: list[DenseLayer], x: np.ndarray):
    caches = []
    out = x
    for layer in branch:
        out, cache = layer.forward(out)
        caches.append(cache)
    return out, caches


def encode_text(model: FusionModel, seq: EmbeddedSequence, padding=None) -> np.ndarray:
    """The text features of a batch, its (B, 2*lstm_hidden) encoder-then-attention
    output, for scoring: the encoder keeps no backward cache and runs only
    up to the rows' longest live length (see ``BiLstmEncoder.forward``),
    which leaves the features bit-identical to ``forward``'s. ``padding``
    passes the encoder its ``padding_states``.
    """
    H, _ = model.encoder.forward(seq.vectors, False, seq.mask, padding)
    return model.attention.forward(H, seq.mask)[0]


def forward(model: FusionModel, num_x=None, cat_x=None, seq: EmbeddedSequence | None = None,
            dropout_rate: float = 0.0, drop_rng: Rng | None = None, text=None):
    """Run a batch of B examples, one per row, through the branches and softmax head.

    ``num_x`` is (B, num_dim), ``cat_x`` (B, cat_dim), and ``seq`` holds
    (B, T, embed_dim) vectors with a (B, T) mask (as
    ``PreparedDataset.inputs`` gives them). A row whose mask is all false
    raises AllMaskedError naming its batch row; ``metrics.check_inputs``
    names its example before a dataset's first forward.

    Returns ((B, C) probabilities, cache); given ``seq``, the cache carries
    everything backward() needs. ``text``, the rows' text features as
    ``encode_text`` returns them, stands in for ``seq``: the branch is not
    run, and backward() cannot run on the cache. Scoring takes that route.
    Dropout (inverted, per branch output) is applied only when a rate and
    rng are given, i.e. during training. Its masks are drawn row by row,
    so a batch sees the same masks as its rows run one at a time in order.
    """
    cfg = model.config
    outputs = []  # (branch output, its layers' caches), in branches() order

    if model.uses_tabular:
        if num_x is None or cat_x is None:
            raise ShapeError(f"variant {model.variant!r} requires numerical and categorical inputs")
        if num_x.ndim != 2 or num_x.shape[1] != cfg.num_feature_dim:
            raise ShapeError(f"numerical input {num_x.shape} vs (B, {cfg.num_feature_dim})")
        if cat_x.shape != (len(num_x), cfg.cat_feature_dim):
            raise ShapeError(f"categorical input {cat_x.shape} vs (B, {cfg.cat_feature_dim})")
        outputs.append(_run_branch(model.mlp_num, num_x))
        outputs.append(_run_branch(model.mlp_cat, cat_x))

    if model.uses_text:
        if text is not None:
            want = (num_x if model.uses_tabular else text).shape[:1] + (model.encoder.out_dim,)
            if text.shape != want:
                raise ShapeError(f"text features {text.shape} vs {want}")
            outputs.append((text, None))
        elif seq is None:
            raise ShapeError(f"variant {model.variant!r} requires an embedded sequence")
        elif model.uses_tabular and seq.vectors.shape[:-2] != num_x.shape[:1]:
            raise ShapeError(f"sequence batch {seq.vectors.shape} vs features {num_x.shape}")
        else:
            H, enc_cache = model.encoder.forward(seq.vectors, True, seq.mask)
            a, _alphas, attn_cache = model.attention.forward(H, seq.mask)
            outputs.append((a, [enc_cache, attn_cache]))

    parts = [out for out, _ in outputs]
    widths = [out.shape[-1] for out in parts]
    drop_masks = [None] * len(parts)
    if dropout_rate > 0.0 and drop_rng is not None:
        survive = 1.0 - dropout_rate
        masks = (drop_rng.random((len(parts[0]), sum(widths))) < survive) / survive
        drop_masks = np.split(masks, np.cumsum(widths)[:-1], axis=1)
        parts = [part * mask for part, mask in zip(parts, drop_masks)]
    cache: dict = {"branches": [branch_cache for _, branch_cache in outputs],
                   "widths": widths, "drop_masks": drop_masks}

    c = np.concatenate(parts, axis=1)
    logits, head_cache = model.head.forward(c)
    probs = softmax(logits)
    cache["head"] = head_cache
    cache["logits"] = logits
    return probs, cache


def backward(model: FusionModel, cache, dlogits: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """The parameter gradient, summed over batch rows, as one vector laid out like theta.

    Each layer's gradients come back keyed like its ``params()``, and are
    concatenated in ``theta`` order, into ``out`` when it is given (a
    contiguous float64 vector of ``theta``'s length, else a ShapeError),
    which is returned. ``model.param_blocks(grad)`` names the blocks. The
    first layer of each branch computes no input gradient: features and
    embeddings are not parameters.
    """
    grads = {}  # block-name prefix -> that layer's gradients
    *branches, head = model.branches()
    [(prefix, layer)] = head
    dc, grads[prefix] = layer.backward(cache["head"], dlogits)
    start = 0
    for branch, caches, width, drop_mask in zip(branches, cache["branches"], cache["widths"],
                                                cache["drop_masks"]):
        if caches is None:
            raise ValueError("backward: forward was given the text features and kept no cache")
        d = dc[:, start:start + width]
        start += width
        if drop_mask is not None:
            d = d * drop_mask
        (first, layer), *rest = branch
        for (prefix, later), later_cache in zip(reversed(rest), reversed(caches[1:])):
            d, grads[prefix] = later.backward(later_cache, d)
        grads[first] = layer.backward(caches[0], d, input_grad=False)[1]
    if out is not None:
        _check_flat(out, model.theta.size, "backward's out")
    return np.concatenate([grads[prefix][pname].ravel() for branch in branches + [head]
                           for prefix, layer in branch for pname in layer.params()], out=out)


def topk_indices(probs: np.ndarray, k: int) -> np.ndarray:
    """(B, k) indices of each row's k largest entries of (B, C) ``probs``,
    largest first; ties go to the lower index."""
    if not 1 <= k <= probs.shape[1]:
        raise ValueError(f"k must be in [1, {probs.shape[1]}], got {k}")
    return np.argsort(-probs, axis=1, kind="stable")[:, :k]


# Overflow is refused at the end, by name, so numpy need not warn of it first.
@np.errstate(over="ignore", invalid="ignore")
def predict_topk(model: FusionModel, num_x=None, cat_x=None, seq=None, k: int = 3) -> Prediction:
    """Top-k classes of one example: ``num_x`` (num_dim,), ``cat_x`` (cat_dim,)
    and a (T, embed_dim) ``seq``, each None where the variant has no branch for it.

    The example is scored as a one-row batch by the calls ``metrics.predict_all``
    makes for a chunk: ``encode_text``, then ``forward`` with its text features.
    Probabilities that are not all finite are a ValueError.
    """
    num, cat = (None if x is None else x[None] for x in (num_x, cat_x))
    text = encode_text(model, seq[None]) if model.uses_text and seq is not None else None
    probs = forward(model, num, cat, text=text)[0]
    if not np.isfinite(probs).all():
        raise ValueError(f"the example's {NON_FINITE_PROBS}")
    return Prediction(probs=probs[0], top_k=topk_indices(probs, k)[0].tolist())


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
    try:
        return raw.decode("ascii").rstrip("\n")
    except UnicodeDecodeError:
        raise CorruptModelError(f"non-ASCII bytes in the line read for {what}") from None


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

        size = param_count(config, variant)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if 8 * size > left:
            raise CorruptModelError(
                f"size mismatch: variant {variant!r} at the header's dimensions has {size} "
                f"parameters ({8 * size} bytes), but only {left} bytes follow the header"
            )
        model = FusionModel(config, variant, np.empty(size))
        blocks = model.param_blocks()
        if n_blocks != len(blocks):
            raise ModelLoadError(
                f"header declares {n_blocks} blocks, variant {variant!r} has {len(blocks)}"
            )
        for name, view in blocks:
            decl = _read_line(fh, f"block {name}").split()
            if len(decl) < 2 or decl[0] != "block":
                raise CorruptModelError(f"expected a block declaration, got {decl!r}")
            if decl[1] != name:
                raise ModelLoadError(f"block order mismatch: got {decl[1]!r}, expected {name!r}")
            try:
                shape = tuple(int(d) for d in decl[2:])
            except ValueError:
                raise CorruptModelError(f"{name}: non-integer shape in {decl!r}") from None
            if shape != view.shape:
                raise ModelLoadError(f"{name}: file shape {shape}, expected {view.shape}")
            nbytes = view.size * 8
            payload = fh.read(nbytes)
            if len(payload) != nbytes:
                raise CorruptModelError(
                    f"{name}: truncated payload ({len(payload)} of {nbytes} bytes)"
                )
            arr = np.frombuffer(payload, dtype="<f8").reshape(shape)
            if not np.all(np.isfinite(arr)):
                raise ModelLoadError(f"{name}: non-finite parameter values")
            view[...] = arr
        if fh.read(1):
            raise CorruptModelError("trailing bytes after final block")
    return model


def clone(model: FusionModel) -> FusionModel:
    """A model of the same variant and config on a copy of ``theta``."""
    return FusionModel(model.config, model.variant, model.theta.copy())
