"""Two physics equations, 36 parameters each.

Trains the two desk-scale benchmark models:

  I.6.2     exp(-(theta/sigma)^2 / 2) / (sqrt(2 pi) sigma)   shape [2,2,1], depth 3
  I.15.3x   (x - u t) / sqrt(1 - u^2/c^2)                    shape [4,2,1], depth [2,1]

Both use exactly 36 circuit parameters and no dense head, which is only
possible because targets are rescaled to unit maximum absolute value on the
training split -- a [4,2,1] network without a head can never leave [-2, 2].
Reported RMSE is on that unit scale.

Run:  python demos/benchmark_subset.py      (about 1 min)
"""

import os
import time

from quirk.data import generate
from quirk.network import network_forward, param_count, spec_from_shape
from quirk.train import TrainConfig, rmse, train

OUT = os.path.join(os.path.dirname(__file__), "out", "benchmark_subset")
os.makedirs(OUT, exist_ok=True)

RUNS = (
    ("I.6.2", [2, 2, 1], 3),
    ("I.15.3x", [4, 2, 1], [2, 1]),
)

rows = []
for eq, shape, depth in RUNS:
    ds = generate(eq, 3000, seed=11).split(seed=11).unit_scaled()
    spec = spec_from_shape(shape, dr_layers=depth, dense_head=False, seed=0)
    cfg = TrainConfig(learning_rate=0.02, max_steps=4000, seed=0,
                      early_stop_patience=4000)
    t0 = time.time()
    model, history = train(ds, spec, cfg)
    X_test, y_test = ds.part("test")
    err = rmse(network_forward(X_test, model), y_test)
    rows.append((eq, param_count(model), err, time.time() - t0))
    print(f"{eq}: shape {shape} depth {depth} -> {param_count(model)} params, "
          f"test RMSE {err:.3e} in {rows[-1][3]:.0f}s "
          f"(best step {history.best_step})")

print("\n| equation | params | test RMSE (unit scale) |")
print("|----------|--------|------------------------|")
for eq, n, err, _ in rows:
    print(f"| {eq:<8} | {n:>6} | {err:.3e} |")
print("\nseeds: data 11, split 11, init/optimizer 0; learning rate 0.02;")
print("4000 Adam steps. The same numbers come out of")
print("  quirk benchmark I.6.2 --config <file>")
