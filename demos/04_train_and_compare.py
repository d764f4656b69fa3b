"""Train all three variants on one synthetic split and compare them.

Reproduces the headline qualitative result at desk scale: the fused
model clearly beats both single-source baselines on top-3 accuracy, and
the per-class recall table shows each baseline's blind group. Finishes
with the attention weights on one inquiry so you can see which words the
text branch considered decisive.

Run:  python3 demos/04_train_and_compare.py   (about a minute on a laptop)
"""

import numpy as np

from fusenet import dataset as ds
from fusenet import embeddings as emb
from fusenet import metrics, synth, training
from fusenet import model as mm
from fusenet.textprep import normalize, tokenize

MAX_SEQ_LEN = 20

examples, manifest = synth.generate_synthetic(n=1300, noise=0.05, seed=5)
table = emb.random_table(synth.vocabulary(), dim=16, seed=7)
train_ex, val_ex, test_ex = ds.split(examples, seed=0)
pipeline = ds.FeaturePipeline.fit(train_ex)
prep = {name: ds.prepare(part, pipeline, table, MAX_SEQ_LEN)
        for name, part in (("train", train_ex), ("val", val_ex), ("test", test_ex))}

config = mm.ModelConfig(
    num_feature_dim=pipeline.num_dim, cat_feature_dim=pipeline.cat_dim,
    embed_dim=16, lstm_hidden=32, mlp_hidden=32, num_classes=13,
    max_seq_len=MAX_SEQ_LEN, seed=1,
)
budget = training.TrainConfig(epochs=10, batch_size=32, learning_rate=3e-3,
                              early_stop_patience=3, seed=0)

models = {}
reports = {}
for variant in ("mlp", "text", "fusion"):
    best, rep = training.train(mm.build_variant(config, variant),
                               prep["train"], prep["val"], budget)
    models[variant] = best
    reports[variant] = metrics.report(best, prep["test"], k=3)
    print(f"trained {variant:<7} best val top-3 {rep.epochs[rep.best_epoch].val_top3:.3f} "
          f"({len(rep.epochs)} epochs)")

print()
print("=== Top-3 accuracy on the held-out test split ===")
for variant in ("mlp", "text", "fusion"):
    print(f"  {variant:<7} {reports[variant].accuracy:.3f}")
print(f"  (exact ceilings at this noise: signals/text "
      f"{manifest['ceilings']['signals_only_top3']:.3f}, "
      f"fused {manifest['ceilings']['fusion_top3']:.3f})")

print()
print("=== Per-class top-3 recall (weakest classes expose each blind spot) ===")
print(f"  {'class':<34} {'signals':>8} {'text':>6} {'fusion':>7}")
for name in ds.CLASS_NAMES:
    row = [reports[v].per_class_recall[reports[v].class_names.index(name)]
           for v in ("mlp", "text", "fusion")]
    print(f"  {name:<34} {row[0]:>8.2f} {row[1]:>6.2f} {row[2]:>7.2f}")

print()
print("=== Attention weights on one inquiry ===")
sample = next(ex for ex in test_ex if ex.label == "Early Payoff")
tokens = tokenize(normalize(sample.text), MAX_SEQ_LEN)
seq = emb.embed_sequence(table, tokens, MAX_SEQ_LEN)
model = models["fusion"]
batch = seq[None]  # the layers take a batch: this one example as its only row
H, _ = model.encoder.forward(batch.vectors)
alphas = model.attention.forward(H, batch.mask)[1][0]
print(f"  text: {sample.text}")
order = np.argsort(-alphas)[:5]
for t in order:
    print(f"    {tokens.tokens[t]:<14} weight {alphas[t]:.3f}")
