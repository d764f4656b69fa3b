"""Operator command line: synth, train, eval, predict, gradcheck.

Exit codes are a stable contract: 0 success, 1 runtime failure, 2 usage
error. Every subcommand is deterministic given its flags (all seeds are
flags). An optional flat key=value config file supplies defaults for
knobs not given explicitly on the command line; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import dataset as ds
from . import embeddings as emb
from . import metrics, synth, training
from . import model as modelmod
from .textprep import normalize, tokenize

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
    if out < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return out


def _read_json(path: str, what: str, parse):
    """``parse`` applied to the JSON document at ``path``; a bad one names the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return parse(json.load(fh))
        except ValueError as err:
            raise ValueError(f"{what} {path}: {err}") from None


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


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
    for dest, (convert, default) in specs.items():
        if getattr(args, dest) is not None:
            continue
        if dest in file_values:
            try:
                setattr(args, dest, convert(file_values[dest]))
            except (ValueError, argparse.ArgumentTypeError) as err:
                parser.error(f"config key {dest}: {err}")
        else:
            setattr(args, dest, default)


# ---------------------------------------------------------------------------
# synth

_SYNTH_SPECS = {
    "n": (_positive_int, 1300),
    "noise": (_fraction, 0.05),
    "seed": (int, 5),
    "num_dim": (_positive_int, synth.DEFAULT_NUM_DIM),
    "vec_dim": (_positive_int, 16),
    "vec_seed": (int, 7),
}


def _cmd_synth(parser, args) -> int:
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
    "epochs": (_positive_int, 12),
    "batch_size": (_positive_int, 32),
    "lr": (_nonneg_float, 3e-3),
    "optimizer": (str, "adam"),
    "dropout": (_fraction, 0.0),
    "patience": (_positive_int, 5),
    "seed": (int, 0),
    "split_seed": (int, 0),
    "lstm_hidden": (_positive_int, 64),
    "mlp_hidden": (_positive_int, 64),
    "max_seq_len": (_positive_int, 100),
}


def _load_splits(data_path: str, split_seed: int):
    examples = ds.load_jsonl(data_path)
    return ds.split(examples, SPLIT_FRACTIONS, seed=split_seed)


def _cmd_train(parser, args) -> int:
    _merge_config(parser, args, _TRAIN_SPECS)
    if args.variant in ("fusion", "text") and not args.embeddings:
        parser.error(f"--embeddings is required for variant {args.variant!r}")
    if args.lr == 0.0:
        print("warning: learning rate is 0; parameters will not change", file=sys.stderr)

    train_ex, val_ex, test_ex = _load_splits(args.data, args.split_seed)
    pipeline = ds.FeaturePipeline.fit(train_ex)
    table = emb.load_vec_file(args.embeddings) if args.embeddings else None

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
    "k": (_positive_int, 3),
    "split": (str, "all"),
    "split_seed": (int, 0),
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


def _read_pipeline(args) -> ds.FeaturePipeline:
    path = args.pipeline or (args.model + ".pipeline.json")
    return _read_json(path, "feature pipeline", ds.FeaturePipeline.from_json)


def _cmd_eval(parser, args) -> int:
    if args.compare:
        reports = [(path, _read_json(path, "report", metrics.from_json))
                   for path in args.compare]
        reports.sort(key=lambda item: item[1].accuracy)
        width = max(len(p) for p, _ in reports) + 2
        print(f"{'report'.ljust(width)}  top-k accuracy")
        for path, rep in reports:
            print(f"{path.ljust(width)}  {rep.accuracy:.4f} (k={rep.k}, n={rep.n})")
        return 0

    if not args.model or not args.data:
        parser.error("--model and --data are required unless --compare is used")
    _merge_config(parser, args, _EVAL_SPECS)
    if args.split not in ("all", "train", "val", "test"):
        parser.error(f"--split must be one of all/train/val/test, got {args.split!r}")

    model = modelmod.load(args.model)
    pipeline = _read_pipeline(args)
    if args.split == "all":
        examples = ds.load_jsonl(args.data)
    else:
        train_ex, val_ex, test_ex = _load_splits(args.data, args.split_seed)
        examples = {"train": train_ex, "val": val_ex, "test": test_ex}[args.split]

    table = None
    if model.uses_text:
        if not args.embeddings:
            parser.error(f"--embeddings is required to evaluate variant {model.variant!r}")
        table = emb.load_vec_file(args.embeddings)
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
    model = modelmod.load(args.model)
    k = args.k
    if not 1 <= k <= model.config.num_classes:
        parser.error(f"--k must be in [1, {model.config.num_classes}], got {k}")

    num_x = cat_x = None
    if model.uses_tabular:
        if not args.features:
            parser.error(f"--features is required for variant {model.variant!r}")
        pipeline = _read_pipeline(args)
        numerical, pairs = _read_json(args.features, "feature file", ds.parse_features)
        if len(numerical) != pipeline.num_dim:
            raise ValueError(
                f"feature file {args.features}: {len(numerical)} numerical values, "
                f"pipeline expects {pipeline.num_dim}"
            )
        num_x = pipeline.scaler.transform(np.array([numerical]))[0]
        cat_x = pipeline.encoder.transform_one(pairs)

    seq = None
    if model.uses_text:
        if not args.embeddings:
            parser.error(f"--embeddings is required for variant {model.variant!r}")
        table = emb.load_vec_file(args.embeddings)
        tokens = tokenize(normalize(args.text), model.config.max_seq_len)
        seq = emb.embed_sequence(table, tokens, model.config.max_seq_len)

    pred = modelmod.predict_topk(model, num_x, cat_x, seq, k=k)
    for idx in pred.top_k:
        print(f"{ds.CLASS_NAMES[idx]}\t{pred.probs[idx]:.6f}")
    return 0


# ---------------------------------------------------------------------------
# gradcheck

def _cmd_gradcheck(parser, args) -> int:
    tolerance = args.tolerance
    seeds = list(range(args.seeds))
    failures: list[str] = []

    layer_worst: dict[str, float] = {}
    for seed in seeds:
        for name, err in training.layer_grad_checks(seed).items():
            layer_worst[name] = max(layer_worst.get(name, 0.0), err)
    for name in sorted(layer_worst):
        err = layer_worst[name]
        status = "ok" if err < tolerance else "FAIL"
        print(f"layer {name:<24} max_rel_err {err:.3e}  {status}")
        if err >= tolerance:
            failures.append(f"layer {name}")

    for variant in modelmod.VARIANTS:
        block_worst: dict[str, float] = {}
        for seed in seeds:
            result = training.grad_check(variant, seed=seed)
            for name, err in result.per_block.items():
                block_worst[name] = max(block_worst.get(name, 0.0), err)
        for name in sorted(block_worst):
            err = block_worst[name]
            status = "ok" if err < tolerance else "FAIL"
            print(f"{variant:<7} {name:<24} max_rel_err {err:.3e}  {status}")
            if err >= tolerance:
                failures.append(f"{variant}:{name}")
    if failures:
        print(f"gradcheck FAILED for: {', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"gradcheck passed: all blocks under {tolerance:g} across {len(seeds)} seeds")
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
    p.add_argument("--n", type=_positive_int, default=None)
    p.add_argument("--noise", type=_fraction, default=None,
                   help="template/profile flip probability, in [0,1)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--num-dim", dest="num_dim", type=_positive_int, default=None)
    p.add_argument("--vec-out", dest="vec_out", default=None,
                   help="also write a synthetic .vec embedding file here")
    p.add_argument("--vec-dim", dest="vec_dim", type=_positive_int, default=None)
    p.add_argument("--vec-seed", dest="vec_seed", type=int, default=None)
    p.add_argument("--config", default=None, help="flat key=value defaults file")

    p = sub.add_parser("train", help="train one model variant")
    p.add_argument("--data", required=True)
    p.add_argument("--variant", required=True, choices=modelmod.VARIANTS)
    p.add_argument("--embeddings", default=None, help=".vec file (fusion/text variants)")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--epochs", type=_positive_int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=_positive_int, default=None)
    p.add_argument("--lr", type=_nonneg_float, default=None)
    p.add_argument("--optimizer", choices=("adam", "sgd"), default=None)
    p.add_argument("--dropout", type=_fraction, default=None)
    p.add_argument("--patience", type=_positive_int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--split-seed", dest="split_seed", type=int, default=None)
    p.add_argument("--lstm-hidden", dest="lstm_hidden", type=_positive_int, default=None)
    p.add_argument("--mlp-hidden", dest="mlp_hidden", type=_positive_int, default=None)
    p.add_argument("--max-seq-len", dest="max_seq_len", type=_positive_int, default=None)
    p.add_argument("--config", default=None)

    p = sub.add_parser("eval", help="evaluate a checkpoint or compare report files")
    p.add_argument("--model", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--embeddings", default=None)
    p.add_argument("--pipeline", default=None,
                   help="feature pipeline JSON (default: <model>.pipeline.json)")
    p.add_argument("--k", type=_positive_int, default=None)
    p.add_argument("--split", default=None, help="all/train/val/test (default all)")
    p.add_argument("--split-seed", dest="split_seed", type=int, default=None)
    p.add_argument("--out", default=None, help="write the report JSON here")
    p.add_argument("--compare", nargs="+", default=None,
                   help="compare existing report JSON files instead of evaluating")
    p.add_argument("--config", default=None)

    p = sub.add_parser("predict", help="classify a single inquiry")
    p.add_argument("--model", required=True)
    p.add_argument("--embeddings", default=None)
    p.add_argument("--pipeline", default=None)
    p.add_argument("--text", default="", help="raw inquiry text")
    p.add_argument("--features", default=None,
                   help='JSON file {"numerical": [...], "categorical": [[name, value], ...]}')
    p.add_argument("--k", type=_positive_int, default=3)

    p = sub.add_parser("gradcheck", help="finite-difference check of every gradient")
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--seeds", type=_positive_int, default=10)

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
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](parser, args)
    except (OSError, ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
