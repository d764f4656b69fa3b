"""Tour the differentiable layers and verify their gradients numerically.

Every layer has a hand-derived backward pass; this demo runs the same
finite-difference harness the test suite uses and prints the worst
relative error per layer and per end-to-end variant. Every layer takes a
batch with a leading row axis; here each runs on a one-row batch.

Run:  python3 demos/02_layers_and_gradients.py
"""

import numpy as np

from fusenet.layers import BiLstmEncoder, FeedforwardAttention, LstmCell
from fusenet.numcore import Rng
from fusenet.training import grad_check, layer_grad_checks

rng = Rng(0)

print("=== LSTM cell: zero weights force analytic gate values ===")
cell = LstmCell(np.zeros((5, 12)), np.zeros(12))  # (hidden+input, 4*hidden) fused gates
c_prev = np.array([[0.4, -1.2, 2.0]])
h, c, cache = cell.step(np.zeros((1, 3)), c_prev, np.zeros((1, 2)))
print(f"  gates i=f=o={cache['i'][0, 0]:.1f}, candidate q={cache['q'][0, 0]:.1f}")
print(f"  c_t = 0.5*c_prev       -> {c[0].round(4)}")
print(f"  h_t = 0.5*tanh(0.5*c)  -> {h[0].round(4)}")
print()

print("=== BiLSTM: each row concatenates forward and time-reversed states ===")
enc = BiLstmEncoder.init(rng.child(1), input_dim=3, hidden_dim=2)
H, _ = enc.forward(rng.normal((1, 4, 3)))
print(f"  output shape {H.shape} = (B, T, 2*hidden)")
print()

print("=== Attention: zero parameters give uniform weights ===")
attn = FeedforwardAttention(np.zeros(4), np.zeros(1))
H = rng.normal((1, 5, 4))
mask = np.array([[True, True, True, True, False]])
a, alphas, _ = attn.forward(H, mask)
print(f"  alphas: {alphas[0].round(4)}  (masked tail gets exactly 0)")
print(f"  output == mean of unmasked rows: {np.allclose(a[0], H[0, :4].mean(axis=0))}")
print()

print("=== Finite-difference checks (step 1e-5, relative error) ===")
for name, err in layer_grad_checks(seed=0).items():
    print(f"  {name:<18} {err:.2e}")
for variant in ("mlp", "text", "fusion"):
    result = grad_check(variant, seed=0)
    print(f"  variant {variant:<10} {result.max_rel_err:.2e} "
          f"({len(result.per_block)} parameter blocks)")
