"""Random DR circuits and their exact gradients, for the kernel tests.

The package evaluates an edge only from its compiled Fourier series, so the
gradients here come from the two places the network reads them: the angle
gradients from the kernel's gradient slots and reverse sweep
(``dr._grad``), and the input
derivative from the compiled series, d/dx of
c_0 + sum_k c_k cos kx + c_{K+k} sin kx, as ``network_backward`` takes it.
"""

import numpy as np

from quirk.dr import DEFAULT_TEMPLATE, DRParams, _grad, _series


def init_dr_params(num_layers, rng, num_qubits=1, entangle=False,
                   template=DEFAULT_TEMPLATE) -> DRParams:
    """Fresh angles drawn uniformly from [-pi, pi)."""
    P = template.params_per_layer
    shape = (num_layers, P) if num_qubits == 1 else (num_layers, num_qubits, P)
    return DRParams(rng.uniform(-np.pi, np.pi, size=shape), num_qubits=num_qubits,
                    entangle=entangle, template=template)


def _wiring(p: DRParams):
    return p.num_qubits, p.entangle, p.template


def kernel_dtheta(xs, p: DRParams) -> np.ndarray:
    """d<Z>/dthetas at inputs ``xs`` (any shape), shaped
    (L,) + xs.shape + p.thetas.shape[1:]; a scalar x gives p.thetas' shape."""
    xs = np.asarray(xs, dtype=np.float64)
    dtheta = _grad(xs.reshape(-1, 1), p.thetas[:, None], *_wiring(p))[1]
    return dtheta.reshape(p.thetas.shape[:1] + xs.shape + p.thetas.shape[1:])


def series_dx(xs, p: DRParams) -> np.ndarray:
    """d<Z>/dx at inputs ``xs`` (any shape) from the edge's compiled series:
    sum_k k (c_{K+k} cos kx - c_k sin kx)."""
    K, c, _ = _series(p.thetas[:, None], *_wiring(p))
    k = np.arange(1, K + 1)
    kx = k * np.asarray(xs, dtype=np.float64)[..., None]
    return np.sum(k * (c[0, K + 1:] * np.cos(kx) - c[0, 1:K + 1] * np.sin(kx)), axis=-1)
