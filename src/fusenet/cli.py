"""Operator command line: synth, train, eval, predict, gradcheck.

Exit codes are a stable contract: 0 success, 1 runtime failure, 2 usage
error. Every subcommand is deterministic given its flags (all seeds are
flags). An optional flat key=value config file supplies defaults for
knobs not given explicitly on the command line; explicit flags win.

Every exit-1 error about an input file starts ``--<flag> <path>: ``,
``--pipeline`` also when it defaults to ``<model>.pipeline.json``; an
OSError keeps its own message, which names the path.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import sys

import numpy as np

from . import dataset as ds
from . import embeddings as emb
from . import metrics, training
from . import model as modelmod
from .textprep import normalize, tokenize

# What the imports built (about 22,000 objects of numpy, argparse and
# fusenet) lives until the process ends. Frozen, it is skipped by every
# later collection, the one at interpreter exit included, which otherwise
# costs a command about 20 ms; what a command creates is still collected.
gc.freeze()

SPLIT_FRACTIONS = (0.6, 0.2, 0.2)


def _fraction(value: str) -> float:
    out = float(value)
    if not 0.0 <= out < 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {value}")
    return out


def _positive_int(value: str) -> int:
    out = int(value)
    if out < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return out


def _nonneg_float(value: str) -> float:
    out = float(value)
    if not (math.isfinite(out) and out >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {value}")
    return out


def _positive_float(value: str) -> float:
    out = float(value)
    if not (math.isfinite(out) and out > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {value}")
    return out


def _one_of(*allowed: str):
    def convert(value: str) -> str:
        if value not in allowed:
            raise argparse.ArgumentTypeError(f"must be one of {'/'.join(allowed)}, got {value!r}")
        return value
    return convert


@contextlib.contextmanager
def _naming(flag: str, path: str):
    """Prefix a ValueError raised inside with ``--<flag> <path>: ``; wrap only that input's code."""
    try:
        yield
    except ValueError as err:
        raise ValueError(f"--{flag} {path}: {err}") from None


def _read_json(path: str, parse):
    """``parse`` applied to the JSON document at ``path``."""
    with open(path, encoding="utf-8") as fh:
        return parse(json.load(fh))


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    set_on: dict[str, int] = {}
    # Undecodable bytes become lone surrogates, which re-encoding finds line by line.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"{path}:{lineno}: not valid UTF-8") from None
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if not key:
                raise ValueError(f"{path}:{lineno}: empty key")
            if key in set_on:
                raise ValueError(f"{path}:{lineno}: key {key!r} already set on line {set_on[key]}")
            set_on[key] = lineno
            values[key] = value.strip()
    return values


def _add_knobs(p: argparse.ArgumentParser, specs: dict[str, tuple]) -> None:
    """One ``--dest-name`` flag per knob, plus ``--config``; defaults are merged later.

    A help text reads its knob's default only when it is shown.
    """
    for dest, (convert, default, about) in specs.items():
        action = p.add_argument("--" + dest.replace("_", "-"), dest=dest, type=convert,
                                default=None, help=f"{about} (default %(knob_default)s)"
                                if about else "default %(knob_default)s")
        action.knob_default = default
    p.add_argument("--config", default=None, help="flat key=value defaults file")


def _merge_config(parser: argparse.ArgumentParser, args: argparse.Namespace,
                  specs: dict[str, tuple]) -> None:
    """Fill unset knobs from the config file, then from built-in defaults."""
    file_values: dict[str, str] = {}
    if getattr(args, "config", None):
        try:
            file_values = _read_config_file(args.config)
        except OSError as err:
            parser.error(f"cannot read config file: {err}")
        except ValueError as err:
            parser.error(str(err))
        unknown = set(file_values) - set(specs)
        if unknown:
            parser.error(f"unknown config keys: {', '.join(sorted(unknown))}")
    for dest, (convert, default, _) in specs.items():
        if getattr(args, dest) is not None:
            continue
        if dest in file_values:
            try:
                setattr(args, dest, convert(file_values[dest]))
            except (ValueError, argparse.ArgumentTypeError) as err:
                parser.error(f"config key {dest}: {err}")
        else:
            setattr(args, dest, default.get() if isinstance(default, _SynthDefault) else default)


# ---------------------------------------------------------------------------
# synth


class _SynthDefault:
    """A knob default defined in ``synth``, which only the synth command imports."""

    def __init__(self, name: str):
        self.name = name

    def get(self):
        from . import synth
        return getattr(synth, self.name)

    def __str__(self) -> str:
        return str(self.get())


# Each knob: dest -> (converter, default, help). A knob is a flag and a
# --config key of the same name.
_SYNTH_SPECS = {
    "n": (_positive_int, 1300, None),
    "noise": (_fraction, 0.05, "template/profile flip probability, in [0,1)"),
    "seed": (int, 5, None),
    "num_dim": (_positive_int, _SynthDefault("DEFAULT_NUM_DIM"), None),
    "vec_dim": (_positive_int, 16, None),
    "vec_seed": (int, 7, None),
}


def _cmd_synth(parser, args) -> int:
    from . import synth

    _merge_config(parser, args, _SYNTH_SPECS)
    if args.n < 130:
        parser.error(f"--n must be at least 130, got {args.n}")
    examples, manifest = synth.generate_synthetic(args.n, args.noise, args.seed,
                                                  num_dim=args.num_dim)
    ds.save_jsonl(examples, args.out)
    manifest_path = args.out + ".manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(examples)} examples to {args.out}")
    print(f"wrote manifest to {manifest_path}")
    ceilings = manifest["ceilings"]
    print(
        "single-source Bayes ceilings: "
        f"text-only top1 {ceilings['text_only_top1']:.4f} / top3 {ceilings['text_only_top3']:.4f}, "
        f"signals-only top1 {ceilings['signals_only_top1']:.4f} / top3 {ceilings['signals_only_top3']:.4f}, "
        f"fused top1 {ceilings['fusion_top1']:.4f} / top3 {ceilings['fusion_top3']:.4f}"
    )
    if args.vec_out:
        words = synth.vocabulary()
        table = emb.random_table(words, args.vec_dim, args.vec_seed)
        emb.write_vec_file(args.vec_out, words, table.matrix)
        print(f"wrote {len(words)} synthetic embeddings (d={args.vec_dim}) to {args.vec_out}")
    return 0


# ---------------------------------------------------------------------------
# train

_TRAIN_SPECS = {
    "epochs": (_positive_int, 12, None),
    "batch_size": (_positive_int, 32, None),
    "lr": (_nonneg_float, 3e-3, None),
    "optimizer": (_one_of("adam", "sgd"), "adam", "adam or sgd"),
    "dropout": (_fraction, 0.0, None),
    "patience": (_positive_int, 5, None),
    "seed": (int, 0, None),
    "split_seed": (int, 0, None),
    "lstm_hidden": (_positive_int, 64, None),
    "mlp_hidden": (_positive_int, 64, None),
    "max_seq_len": (_positive_int, 100, None),
}


def _load_table(path: str, model: modelmod.FusionModel | None = None,
                only=None) -> emb.EmbeddingTable:
    """The ``--embeddings`` table, from a file with vectors as wide as ``model`` was trained on.

    ``only`` is passed to ``load_vec_file``.
    """
    with _naming("embeddings", path):
        table = emb.load_vec_file(path, only=only)
        want = table.dim if model is None else model.config.embed_dim
        if table.file_rows == 0 or table.dim != want:
            raise ValueError(f"{table.file_rows} vectors of width {table.dim}, "
                             f"the model needs vectors of width {want}")
    return table


def _cmd_train(parser, args) -> int:
    _merge_config(parser, args, _TRAIN_SPECS)
    if args.variant in ("fusion", "text") and not args.embeddings:
        parser.error(f"--embeddings is required for variant {args.variant!r}")
    if args.lr == 0.0:
        print("warning: learning rate is 0; parameters will not change", file=sys.stderr)

    with _naming("data", args.data):
        train_ex, val_ex, test_ex = ds.split(ds.load_jsonl(args.data), SPLIT_FRACTIONS,
                                             seed=args.split_seed)
        pipeline = ds.FeaturePipeline.fit(train_ex)
        if args.variant in ("fusion", "mlp"):
            for what, width in (("numerical", pipeline.num_dim), ("categorical", pipeline.cat_dim)):
                if width == 0:
                    raise ValueError(f"the train split has no {what} features, "
                                     f"which variant {args.variant!r} needs")
    table = _load_table(args.embeddings) if args.embeddings else None

    config = modelmod.ModelConfig(
        num_feature_dim=max(pipeline.num_dim, 1),
        cat_feature_dim=max(pipeline.cat_dim, 1),
        embed_dim=table.dim if table is not None else 1,
        lstm_hidden=args.lstm_hidden,
        mlp_hidden=args.mlp_hidden,
        num_classes=ds.NUM_CLASSES,
        max_seq_len=args.max_seq_len,
        seed=args.seed,
    )
    model = modelmod.build_variant(config, args.variant)

    need_text = model.uses_text
    prepared_train = ds.prepare(train_ex, pipeline, table if need_text else None, args.max_seq_len)
    prepared_val = ds.prepare(val_ex, pipeline, table if need_text else None, args.max_seq_len)
    if need_text:
        print(f"embedded text: {prepared_train.oov_total} OOV tokens in train, "
              f"{prepared_val.oov_total} in validation")

    cfg = training.TrainConfig(
        epochs=args.epochs, batch_size=args.batch_size, learning_rate=args.lr,
        optimizer=args.optimizer, dropout_rate=args.dropout,
        early_stop_patience=args.patience, seed=args.seed,
    )
    best, report = training.train(model, prepared_train, prepared_val, cfg)

    modelmod.save(best, args.out)
    training.write_report(report, args.out + ".trainreport.txt")
    with open(args.out + ".pipeline.json", "w", encoding="utf-8") as fh:
        json.dump(pipeline.to_json(), fh)
        fh.write("\n")
    best_val = report.epochs[report.best_epoch].val_top3
    print(f"trained variant {args.variant!r} on {len(train_ex)} examples "
          f"({len(val_ex)} validation, {len(test_ex)} held-out test)")
    print(f"checkpoint written to {args.out}")
    print(f"best validation top-3 accuracy: {best_val:.4f} (epoch {report.best_epoch})")
    return 0


# ---------------------------------------------------------------------------
# eval

_EVAL_SPECS = {
    "k": (_positive_int, 3, None),
    "split": (_one_of("all", "train", "val", "test"), "all", "all, train, val or test"),
    "split_seed": (int, 0, None),
}


def _print_report_table(rep: metrics.EvalReport) -> None:
    # Classes sorted by recall ascending (the weakest first), undefined last.
    rows = list(zip(rep.class_names, rep.n_k, rep.per_class_recall))
    defined = sorted(
        (r for r in rows if r[2] is not None), key=lambda r: (r[2], rep.class_names.index(r[0]))
    )
    undefined = [r for r in rows if r[2] is None]
    width = max(len(name) for name in rep.class_names) + 2
    print(f"{'class'.ljust(width)}  n_k  recall@{rep.k}")
    for name, nk, recall in defined:
        print(f"{name.ljust(width)} {nk:4d}  {recall:.4f}")
    for name, nk, _ in undefined:
        print(f"{name.ljust(width)} {nk:4d}  n/a (no cases)")
    print(f"top-{rep.k} accuracy: {rep.accuracy:.4f} over {rep.n} cases")
    print("weighted-recall identity: ok (checked to 1e-12)")


def _check_k(parser, k: int, model: modelmod.FusionModel) -> None:
    if not 1 <= k <= model.config.num_classes:
        parser.error(f"--k must be in [1, {model.config.num_classes}], got {k}")


def _read_pipeline(args, model: modelmod.FusionModel) -> ds.FeaturePipeline:
    """The ``--pipeline`` file (default ``<model>.pipeline.json``), as wide as
    ``model``'s tabular inputs."""
    path = args.pipeline or (args.model + ".pipeline.json")
    with _naming("pipeline", path):
        pipeline = _read_json(path, ds.FeaturePipeline.from_json)
        cfg = model.config
        widths = (pipeline.num_dim, pipeline.cat_dim)
        if model.uses_tabular and widths != (cfg.num_feature_dim, cfg.cat_feature_dim):
            raise ValueError(f"{widths[0]} numerical and {widths[1]} categorical features, "
                             f"the model takes {cfg.num_feature_dim} and {cfg.cat_feature_dim}")
    return pipeline


def _cmd_eval(parser, args) -> int:
    if args.compare:
        reports = []
        for path in args.compare:
            with _naming("compare", path):
                reports.append((path, _read_json(path, metrics.from_json)))
        reports.sort(key=lambda item: item[1].accuracy)
        width = max(len(p) for p, _ in reports) + 2
        print(f"{'report'.ljust(width)}  top-k accuracy")
        for path, rep in reports:
            print(f"{path.ljust(width)}  {rep.accuracy:.4f} (k={rep.k}, n={rep.n})")
        return 0

    if not args.model or not args.data:
        parser.error("--model and --data are required unless --compare is used")
    _merge_config(parser, args, _EVAL_SPECS)

    with _naming("model", args.model):
        model = modelmod.load(args.model)
    _check_k(parser, args.k, model)
    pipeline = _read_pipeline(args, model)
    with _naming("data", args.data):
        examples = ds.load_jsonl(args.data)
        if args.split != "all":
            splits = ds.split(examples, SPLIT_FRACTIONS, seed=args.split_seed)
            examples = splits[("train", "val", "test").index(args.split)]
        if not examples:
            raise ValueError(f"no records to evaluate (--split {args.split})")

    table = None
    if model.uses_text:
        if not args.embeddings:
            parser.error(f"--embeddings is required to evaluate variant {model.variant!r}")
        table = _load_table(args.embeddings, model)
    with _naming("data", args.data):
        prepared = ds.prepare(examples, pipeline, table, model.config.max_seq_len)
    rep = metrics.report(model, prepared, k=args.k)
    _print_report_table(rep)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(metrics.to_json(rep), fh, indent=2)
            fh.write("\n")
        print(f"report written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# predict

def _cmd_predict(parser, args) -> int:
    with _naming("model", args.model):
        model = modelmod.load(args.model)
    _check_k(parser, args.k, model)

    num_x = cat_x = None
    if model.uses_tabular:
        if not args.features:
            parser.error(f"--features is required for variant {model.variant!r}")
        pipeline = _read_pipeline(args, model)
        with _naming("features", args.features):
            numerical, pairs = _read_json(args.features, ds.parse_features)
            if len(numerical) != pipeline.num_dim:
                raise ValueError(f"{len(numerical)} numerical values, "
                                 f"pipeline expects {pipeline.num_dim}")
        num_x = pipeline.scaler.transform(np.array([numerical]))[0]
        cat_x = pipeline.encoder.transform([pairs])[0]

    seq = None
    if model.uses_text:
        if not args.embeddings:
            parser.error(f"--embeddings is required for variant {model.variant!r}")
        tokens = tokenize(normalize(args.text), model.config.max_seq_len)
        if not tokens.tokens:
            raise ValueError(f"--text {args.text!r} has no tokens after normalization, "
                             "so attention has no unmasked positions")
        # Only the query's rows are converted, so a bad value elsewhere goes unreported.
        table = _load_table(args.embeddings, model, only=tokens.tokens)
        seq = emb.embed_sequence(table, tokens, model.config.max_seq_len)

    pred = modelmod.predict_topk(model, num_x, cat_x, seq, k=args.k)
    for idx in pred.top_k:
        print(f"{ds.CLASS_NAMES[idx]}\t{pred.probs[idx]:.6f}")
    return 0


# ---------------------------------------------------------------------------
# gradcheck

def _cmd_gradcheck(parser, args) -> int:
    from . import gradcheck
    tolerance = args.tolerance
    failures: list[str] = []
    # (printed prefix, failure prefix, seed -> {name: max relative error})
    checks = [("layer", "layer ", gradcheck.layer_grad_checks)] + [
        (f"{variant:<7}", f"{variant}:", lambda seed, v=variant: gradcheck.grad_check(v, seed))
        for variant in modelmod.VARIANTS
    ]
    for prefix, fail_prefix, run in checks:
        worst: dict[str, float] = {}
        for seed in range(args.seeds):
            for name, err in run(seed).items():
                worst[name] = max(worst.get(name, 0.0), err)
        for name in sorted(worst):
            ok = worst[name] < tolerance
            print(f"{prefix} {name:<24} max_rel_err {worst[name]:.3e}  {'ok' if ok else 'FAIL'}")
            if not ok:
                failures.append(fail_prefix + name)
    if failures:
        print(f"gradcheck FAILED for: {', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"gradcheck passed: all blocks under {tolerance:g} across {args.seeds} seeds")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusenet",
        description="Train and evaluate the fused tabular+text inquiry classifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset plus manifest")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--vec-out", dest="vec_out", default=None,
                   help="also write a synthetic .vec embedding file here")
    _add_knobs(p, _SYNTH_SPECS)

    p = sub.add_parser("train", help="train one model variant")
    p.add_argument("--data", required=True)
    p.add_argument("--variant", required=True, choices=modelmod.VARIANTS)
    p.add_argument("--embeddings", default=None, help=".vec file (fusion/text variants)")
    p.add_argument("--out", required=True, help="checkpoint output path")
    _add_knobs(p, _TRAIN_SPECS)

    p = sub.add_parser("eval", help="evaluate a checkpoint or compare report files")
    p.add_argument("--model", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--embeddings", default=None)
    p.add_argument("--pipeline", default=None,
                   help="feature pipeline JSON (default: <model>.pipeline.json)")
    p.add_argument("--out", default=None, help="write the report JSON here")
    p.add_argument("--compare", nargs="+", default=None,
                   help="compare existing report JSON files instead of evaluating")
    _add_knobs(p, _EVAL_SPECS)

    p = sub.add_parser("predict", help="classify a single inquiry")
    p.add_argument("--model", required=True)
    p.add_argument("--embeddings", default=None)
    p.add_argument("--pipeline", default=None)
    p.add_argument("--text", default="", help="raw inquiry text")
    p.add_argument("--features", default=None,
                   help='JSON file {"numerical": [...], "categorical": [[name, value], ...]}')
    p.add_argument("--k", type=_positive_int, default=3)

    p = sub.add_parser("gradcheck", help="finite-difference check of every gradient")
    p.add_argument("--tolerance", type=_positive_float, default=1e-4)
    p.add_argument("--seeds", type=_positive_int, default=10)

    # Each handler reports usage errors through its own subcommand's parser.
    for p in sub.choices.values():
        p.set_defaults(command_parser=p)
    return parser


_HANDLERS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "predict": _cmd_predict,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        args.command_parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return _HANDLERS[args.command](args.command_parser, args)
    except (OSError, ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
