"""Shrinking a trained network by half.

An edge whose circuit output barely moves over the training inputs is dead
weight: the downstream unit sees an almost-constant contribution that the
rescale layer can absorb.  We score every edge by the standard deviation of
its output, drop edges scoring under tau x (network-wide best), cascade away
units left with no inputs or no outputs, and fine-tune the survivors.

Here that takes the Gaussian-bell model (I.6.2) from 36 to 18 parameters.

Run:  python demos/pruning_walkthrough.py      (about 40 s)
"""

import os
import warnings

import numpy as np

from quirk.data import generate
from quirk.network import network_forward, param_count, spec_from_shape
from quirk.train import TrainConfig, edge_scores, prune, rmse, train

OUT = os.path.join(os.path.dirname(__file__), "out", "pruning")
os.makedirs(OUT, exist_ok=True)

ds = generate("I.6.2", 3000, seed=11).split(seed=11).unit_scaled()
spec = spec_from_shape([2, 2, 1], dr_layers=3, dense_head=False, seed=0)
cfg = TrainConfig(learning_rate=0.02, max_steps=4000, seed=0,
                  early_stop_patience=4000)
model, _ = train(ds, spec, cfg)
X_test, y_test = ds.part("test")
base = rmse(network_forward(X_test, model), y_test)
print(f"trained [2,2,1] model: {param_count(model)} params, test RMSE {base:.3e}")

X_train, _ = ds.part("train")
print("\nedge variance scores (rows = incoming feature, cols = unit):")
for k, s in enumerate(edge_scores(model, X_train)):
    print(f"layer {k}:")
    print(np.array_str(s, precision=3))

TAU = 0.55
print(f"\npruning with tau = {TAU}: an edge survives only if its score is at "
      f"least {TAU} x the best score anywhere")
with warnings.catch_warnings():
    warnings.simplefilter("ignore", RuntimeWarning)
    pruned = prune(model, ds, tau=TAU, config=cfg, fine_tune_steps=2000)
err = rmse(network_forward(X_test, pruned), y_test)
cut = 100 * (param_count(model) - param_count(pruned)) / param_count(model)
print(f"\nafter pruning + 2000 fine-tune steps: "
      f"{param_count(model)} -> {param_count(pruned)} params ({cut:.0f}% cut), "
      f"test RMSE {base:.3e} -> {err:.3e}")
print("surviving wiring per layer (True = edge kept):")
for k, active in enumerate(pruned.edge_active):
    print(f"layer {k}:\n{active}")
