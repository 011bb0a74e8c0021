"""Reading a trained network back as a formula.

Every edge is a one-dimensional map from the encoding domain [0, pi] into
[-1, 1], so after training we can sample each edge on a grid, fit a
low-degree polynomial, and compose the fits into a fully classical
surrogate.  On the x1^2 - x2^2 demo target the two edges come out as clean
quadratics and the surrogate matches the network almost exactly.

Run:  python demos/interpretability_readout.py      (about 30 s)
"""

import os

import numpy as np

from quirk import svgplot
from quirk.data import generate
from quirk.interpret import DEFAULT_GRID_SIZE, report, surrogate_forward
from quirk.network import edge_samples, network_forward, spec_from_shape
from quirk.train import TrainConfig, rmse, train

OUT = os.path.join(os.path.dirname(__file__), "out", "interpret")
os.makedirs(OUT, exist_ok=True)


def poly_str(fit):
    terms = []
    for d, c in enumerate(fit.coefficients):
        if d == 0:
            terms.append(f"{c:+.3f}")
        elif d == 1:
            terms.append(f"{c:+.3f} t")
        else:
            terms.append(f"{c:+.3f} t^{d}")
    return " ".join(terms)


ds = generate("x2-y2", 3000, seed=11).split(seed=11)
spec = spec_from_shape([2, 1], dr_layers=3, dense_head=False, seed=0)
cfg = TrainConfig(learning_rate=0.02, max_steps=4000, seed=0,
                  early_stop_patience=4000)
model, _ = train(ds, spec, cfg)
X_test, y_test = ds.part("test")
print(f"trained [2,1] model on x1^2 - x2^2, "
      f"test RMSE {rmse(network_forward(X_test, model), y_test):.3e}")

rep = report(model, ds)
print("\nper-edge polynomial fits (t = 2x/pi - 1, x the encoded input):")
for e in rep.edges:
    layer, i, u = e.edge_id
    print(f"  edge ({layer},{i},{u}): degree {e.fit.degree}, "
          f"r^2 {e.fit.r_squared:.4f}")
    print(f"    p(t) = {poly_str(e.fit)}")

print("\nhow the pieces compose:")
print(rep.summary())

print(f"\nsurrogate vs model RMSE {rep.surrogate_rmse:.3e} "
      f"(model vs targets: {rep.model_rmse:.3e})")
surr = surrogate_forward(rep, X_test)
print(f"surrogate vs raw targets RMSE {rmse(surr, y_test):.3e} "
      "-- the closed form predicts about as well as the network itself")

# every live edge on the report's grid, from the series the model serves;
# the rows follow the live edges of rep.edges
xs = np.linspace(0.0, np.pi, DEFAULT_GRID_SIZE)
t = 2.0 * xs / np.pi - 1.0
live = [e for e in rep.edges if e.active]
for e, ys in zip(live, edge_samples(model, xs)):
    layer, i, u = e.edge_id
    path = os.path.join(OUT, f"edge_{layer}_{i}_{u}.svg")
    svgplot.save(path,
                 [svgplot.Series(xs, ys, label="edge output"),
                  svgplot.Series(xs, e.fit(t),
                                 label=f"degree-{e.fit.degree} fit")],
                 title=f"edge ({layer},{i},{u})", xlabel="x", ylabel="f(x)")
    print(f"wrote {path}")
