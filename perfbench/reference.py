"""A fixed task that measures how fast the machine is running right now.

The benchmark times one run of this script around every fusenet command
and scales the command's times by ``REF_NOMINAL_S / (its time)``. On a
shared host the speed available to one process can swing by up to 2x
over minutes; the task mixes what fusenet commands spend their time on
(interpreter start, importing numpy, LSTM-sized numpy steps in a Python
loop, building a dict from split strings), so it slows down with them.
It uses nothing from fusenet, so a change to the package cannot move it.
"""

import numpy as np

rng = np.random.default_rng(0)
W = rng.normal(size=(48, 128))
h = rng.normal(size=48)
for _ in range(600):
    z = h @ W
    s = 1.0 / (1.0 + np.exp(-z[:96]))
    q = np.tanh(z[96:])
    h = np.concatenate([s[:32] * q, h[32:]])
words = " ".join(str(i) for i in range(20000)).split(" ")
table = {w: float(i) for i, w in enumerate(words)}
