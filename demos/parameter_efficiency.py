"""How far do 16 parameters go?

A single-qubit re-uploading circuit is a global function approximator: every
parameter bends the whole curve.  B-splines spend their budget locally, one
knot span at a time.  This script fits the bumpy benchmark curve

    f(x) = (e^{sin x} * x^3 + x^2) / 15000      on x in [0, 20]

with a 16-parameter (8-layer) circuit and with B-splines at 16, 22 and 46
coefficients, then overlays everything in one SVG.

Run:  python demos/parameter_efficiency.py      (about 15 s)
"""

import os

import numpy as np

from quirk.bspline import fit as fit_bspline
from quirk.data import generate_univariate, target_scale
from quirk.network import network_forward, param_count, spec_from_shape
from quirk.svgplot import Series, save
from quirk.train import TrainConfig, rmse, train

OUT = os.path.join(os.path.dirname(__file__), "out", "parameter_efficiency")
os.makedirs(OUT, exist_ok=True)

# one seed pins the dataset, the split, the init, and the optimizer
raw = generate_univariate("exp_sin_poly", 3000, x_range=(0, 20),
                          seed=11).split(seed=11)
scale = target_scale(raw.part("train")[1])
ds = raw.unit_scaled()
X_train, y_train = ds.part("train")
X_test, y_test = ds.part("test")
print(f"target rescaled by 1/{scale:.1f} so max |y| on the training split is 1")

spec = spec_from_shape([1, 1], dr_layers=8, dense_head=False, seed=0)
cfg = TrainConfig(learning_rate=0.02, max_steps=4000, seed=0,
                  early_stop_patience=4000)
model, history = train(ds, spec, cfg)
dr_err = rmse(network_forward(X_test, model), y_test)
print(f"\n{param_count(model)}-parameter DR circuit: "
      f"test RMSE {dr_err:.3e} (best step {history.best_step})")

grid = np.linspace(0, 20, 500)
series = [Series(X_test[:, 0], y_test, "target (test split)", points=True),
          Series(grid, network_forward(grid[:, None], model), "DR, 16 params")]

print("\nB-spline least-squares fits on the same training data:")
for n_coeffs, S in ((16, 1.0), (22, 1.0), (46, 0.05)):
    spline = fit_bspline((X_train[:, 0], y_train), n_coeffs=n_coeffs, S=S)
    err = rmse(spline.predict(X_test[:, 0]), y_test)
    marker = "<-- the DR circuit beats this" if err > dr_err else ""
    print(f"  {n_coeffs:2d} coefficients, S={S:<4}: test RMSE {err:.3e} {marker}")
    series.append(Series(grid, spline.predict(grid),
                         f"spline {n_coeffs} coeffs, S={S:g}"))

path = os.path.join(OUT, "overlay.svg")
save(path, series, title="16-parameter DR circuit vs B-spline budgets",
     xlabel="x", ylabel="y (unit scale)")
print(f"\noverlay written to {path}")
print("the smooth global fit comes from the circuit's cosine harmonics;")
print("the stiff S=1 spline underfits the bumps at the same budget")
