"""Data re-uploading (DR) activations: n qubits, L layers, exact gradients.

A DR circuit alternates an encoding rotation fed by the input with
trainable rotations fed by angles::

    |0> -- RY(x) RZ(t[0,0]) RX(t[0,1]) -- RY(x) RZ(t[1,0]) RX(t[1,1]) -- ... --< Z >

The readout is <Z> of the final state, a smooth function of x in [-1, 1].
An n-qubit edge runs every gate of a layer on each qubit (with its own
angles), optionally followed by a ring of CNOTs, and reads <Z> on qubit 0.
Gradients with respect to every angle are computed in one adjoint reverse
sweep that undoes each gate on the final state and its adjoint together
(stacked on one axis), so no per-gate state is stored and the cost is O(L)
per sample; the parameter-shift rule exists in the test suite as an
independent oracle, not here.

Internally everything is vectorized: the kernel accepts an input array of
any shape together with a stacked theta array ``(L, ..., P)`` (one qubit)
or ``(L, ..., n, P)`` whose middle axes broadcast against the input.

The kernel is also a compiler.  With K encoding gates in all, the readout
is exactly a real trigonometric polynomial of degree K in x, so ``_series``
runs the adjoint sweep once on 2K+1 nodes for a flat stack of edges and
turns each edge's values and angle gradients into its Fourier coefficients
and their Jacobian with a fixed real DFT, the same product for every edge.
It is a plain function: the network memoises its results, once per network
state.  The network evaluates and trains from those coefficients, so the
derivative in x comes from the series, not from the circuit; the
statevector kernel serves ``dr_forward_batch`` and the compile step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

_GATE_KINDS = ("rx", "ry", "rz")

# registers beyond this many qubits fail at construction: 2^n amplitude
# arrays per edge grow fast, and an accidental n=30 should not swap
MAX_QUBITS = 5


class CapacityError(ValueError):
    """Raised when a circuit would exceed MAX_QUBITS qubits."""


def _check_capacity(num_qubits: int) -> None:
    if num_qubits > MAX_QUBITS:
        raise CapacityError(f"{num_qubits} qubits exceeds the cap of {MAX_QUBITS}")


@dataclass(frozen=True)
class GateTemplate:
    """Ordered per-layer gate list: (kind, source) with source = "input" or a
    parameter index.  The first entry must be the encoding gate."""

    gates: tuple = (("ry", "input"), ("rz", 0), ("rx", 1))

    def __post_init__(self):
        if not self.gates:
            raise ValueError("template needs at least one gate")
        norm = []
        for kind, source in self.gates:
            kind = kind.lower()
            if kind not in _GATE_KINDS:
                raise ValueError(f"unknown gate kind {kind!r}; expected one of {_GATE_KINDS}")
            if source != "input" and not isinstance(source, int):
                raise ValueError(f"gate source must be 'input' or a parameter index, got {source!r}")
            norm.append((kind, source))
        if norm[0][1] != "input":
            raise ValueError("first template entry must be the encoding gate (source='input')")
        idx = sorted(s for _, s in norm if s != "input")
        if idx != list(range(len(idx))):
            raise ValueError(f"parameter indices must be exactly 0..P-1 once each, got {idx}")
        object.__setattr__(self, "gates", tuple(norm))

    @property
    def params_per_layer(self) -> int:
        return sum(1 for _, s in self.gates if s != "input")


DEFAULT_TEMPLATE = GateTemplate()
# full single-qubit SU(2) trainable block (3 params/layer); available, not default
SU2_TEMPLATE = GateTemplate((("ry", "input"), ("rz", 0), ("ry", 1), ("rz", 2)))


@dataclass
class DRParams:
    """Angles and wiring of one DR activation.

    ``thetas`` has shape (L, P) for a single qubit or (L, n, P) when
    ``num_qubits`` = n >= 2 (distinct parameters per qubit).
    """

    thetas: np.ndarray
    num_qubits: int = 1
    entangle: bool = False
    template: GateTemplate = field(default_factory=GateTemplate)

    def __post_init__(self):
        self.thetas = np.asarray(self.thetas, dtype=np.float64)
        if self.num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {self.num_qubits}")
        _check_capacity(self.num_qubits)
        want = 2 if self.num_qubits == 1 else 3
        if self.thetas.ndim != want:
            raise ValueError(
                f"thetas must have {want} dims for num_qubits={self.num_qubits}, "
                f"got shape {self.thetas.shape}"
            )
        if self.num_qubits > 1 and self.thetas.shape[1] != self.num_qubits:
            raise ValueError(
                f"thetas.shape[1]={self.thetas.shape[1]} must equal num_qubits={self.num_qubits}"
            )
        if self.thetas.shape[0] < 1:
            raise ValueError("need at least one layer")
        P = self.template.params_per_layer
        if self.thetas.shape[-1] != P:
            raise ValueError(
                f"thetas last dim {self.thetas.shape[-1]} does not match "
                f"template params_per_layer={P}"
            )
        if not np.all(np.isfinite(self.thetas)):
            raise ValueError("all angles must be finite")


def _clamp_domain(xs: np.ndarray, clamp: bool) -> np.ndarray:
    if not np.all(np.isfinite(xs)):
        raise ValueError("inputs must be finite")
    if not clamp:
        return xs
    out_of_domain = (xs < 0.0) | (xs > np.pi)
    if np.any(out_of_domain):
        warnings.warn(
            f"{int(np.count_nonzero(out_of_domain))} input(s) outside [0, pi] were clamped",
            RuntimeWarning,
            stacklevel=3,
        )
        xs = np.clip(xs, 0.0, np.pi)
    return xs


# --- kernel -----------------------------------------------------------------
# An n-qubit state is a list of 2^n complex amplitude arrays (qubit 0 is the
# most significant bit of the list index), each broadcast over the batch, so
# a gate is a handful of broadcast multiplies per amplitude pair and a CNOT
# only reorders the list.  The reverse sweep keeps the same list, with each
# amplitude holding (psi_i, lam_i) stacked on a new leading axis.


def _gate_coeffs(kind: str, a):
    # (cos, sin) of the half angle, or the RZ phase pair
    if kind == "rz":
        p = np.exp(-0.5j * np.asarray(a))
        return p, np.conj(p)
    half = a / 2.0
    return np.cos(half), np.sin(half)


def _gate_apply(kind: str, coeffs, s0, s1):
    c, s = coeffs
    if kind == "rx":
        return c * s0 - 1j * s * s1, -1j * s * s0 + c * s1
    if kind == "ry":
        return c * s0 - s * s1, s * s0 + c * s1
    return c * s0, s * s1  # rz


def _pauli_apply(kind: str, s0, s1):
    # generator of each rotation kind
    if kind == "rx":
        return s1, s0
    if kind == "ry":
        return -1j * s1, 1j * s0
    return s0, -s1  # rz


@lru_cache(maxsize=None)
def _ops(n: int, entangle: bool, template: GateTemplate, L: int) -> tuple:
    """The circuit as a flat op list.  A rotation is (kind, index, pairs):
    its angle is thetas[index] (the input when index is None) and it mixes
    the amplitude pairs (i, i | bit) of its qubit.  An entangling ring of
    CNOTs (0->1, ..., n-1->0) is ("cnot", perm, inverse) with
    new_state[i] = state[perm[i]]."""
    dim = 2**n
    ops = []
    for l in range(L):
        for kind, source in template.gates:
            for q in range(n):
                bit = 1 << (n - 1 - q)
                pairs = tuple((i, i | bit) for i in range(dim) if not i & bit)
                index = (None if source == "input"
                         else (l, ..., source) if n == 1 else (l, ..., q, source))
                ops.append((kind, index, pairs))
        if entangle and n > 1:
            perm = list(range(dim))
            for c in range(n):
                cbit, tbit = 1 << (n - 1 - c), 1 << (n - 1 - (c + 1) % n)
                perm = [perm[i ^ tbit if i & cbit else i] for i in range(dim)]
            inverse = sorted(range(dim), key=perm.__getitem__)
            ops.append(("cnot", tuple(perm), tuple(inverse)))
    return tuple(ops)


def _setup(xs: np.ndarray, thetas: np.ndarray, n: int):
    # returns (batch shape, |0...0>); thetas end in (P,) or (n, P)
    batch = np.broadcast_shapes(xs.shape, thetas.shape[1:-1] if n == 1 else thetas.shape[1:-2])
    state = [np.ones(batch, dtype=np.complex128)]
    state += [np.zeros(batch, dtype=np.complex128) for _ in range(2**n - 1)]
    return batch, state


def _sweep(state: list, ops, xs: np.ndarray, thetas: np.ndarray) -> list:
    """Run ``ops`` on ``state`` in place."""
    encode = {}  # every encoding gate of one kind shares its coefficients
    for kind, index, pairs in ops:
        if kind == "cnot":  # index holds perm
            state[:] = [state[i] for i in index]
            continue
        if index is not None:
            coeffs = _gate_coeffs(kind, thetas[index])
        elif kind in encode:
            coeffs = encode[kind]
        else:
            coeffs = encode[kind] = _gate_coeffs(kind, xs)
        for i, j in pairs:
            state[i], state[j] = _gate_apply(kind, coeffs, state[i], state[j])
    return state


def _z0(state: list) -> np.ndarray:
    # <Z> on qubit 0: the first half of the list has it in |0>
    half = len(state) // 2
    p = [s.real**2 + s.imag**2 for s in state]
    return sum(p[1:half], p[0]) - sum(p[half + 1:], p[half])


def _forward(xs: np.ndarray, thetas: np.ndarray, n: int, entangle: bool,
             template: GateTemplate) -> np.ndarray:
    """<Z> for inputs ``xs`` (any shape) against stacked ``thetas``
    (L, ..., P) for n = 1 or (L, ..., n, P)."""
    _, state = _setup(xs, thetas, n)
    return _z0(_sweep(state, _ops(n, entangle, template, thetas.shape[0]), xs, thetas))


def _grad(xs: np.ndarray, thetas: np.ndarray, n: int, entangle: bool,
          template: GateTemplate):
    """Forward value plus exact per-sample angle gradients.

    Returns (f, dtheta) with f shaped like the broadcast batch and dtheta
    shaped (L,) + batch + thetas' trailing (P,) or (n, P), each entry at
    its (layer, [qubit,] param-index) slot.
    """
    batch, psi = _setup(xs, thetas, n)
    ops = _ops(n, entangle, template, thetas.shape[0])
    f = _z0(_sweep(psi, ops, xs, thetas))

    # reverse sweep over state[i] = (psi_i, lam_i), lam starting as Z_0 psi_N:
    # undoing gate k with G_k^dagger takes psi_{k+1} back to psi_k, and the
    # derivative through a trainable gate k is Im <lam | P_k | psi_{k+1}>;
    # encoding gates are only undone
    half = len(psi) // 2
    state = [np.stack((s, s if i < half else -s)) for i, s in enumerate(psi)]
    encode = {}
    dtheta = np.zeros(thetas.shape[:1] + batch
                      + (thetas.shape[-1:] if n == 1 else thetas.shape[-2:]))
    for kind, index, pairs in reversed(ops):
        if kind == "cnot":  # pairs holds the inverse permutation
            state = [state[i] for i in pairs]
            continue
        if index is not None:
            g = None
            for i, j in pairs:
                p0, p1 = _pauli_apply(kind, state[i][0], state[j][0])
                t = np.conj(state[i][1]) * p0 + np.conj(state[j][1]) * p1
                g = t if g is None else g + t
            dtheta[index] += g.imag
            coeffs = _gate_coeffs(kind, np.negative(thetas[index]))
        else:
            if kind not in encode:
                encode[kind] = _gate_coeffs(kind, np.negative(xs))
            coeffs = encode[kind]
        for i, j in pairs:
            state[i], state[j] = _gate_apply(kind, coeffs, state[i], state[j])
    return f, dtheta


# --- compiler ---------------------------------------------------------------
# An edge with K encoding gates in all is a real trigonometric polynomial of
# degree K in x (each gate adds frequencies +-1/2 to bra and ket, so <Z>
# holds integer frequencies |k| <= K), hence 2K+1 samples fix it exactly.

@lru_cache(maxsize=None)
def _dft(K: int) -> np.ndarray:
    """Real DFT (2K+1, 2K+1) taking values at x_m = 2 pi m / (2K+1) to the
    coefficients of [1, cos x, ..., cos Kx, sin x, ..., sin Kx]."""
    N = 2 * K + 1
    kx = np.outer(np.arange(1, K + 1), 2.0 * np.pi * np.arange(N) / N)
    D = np.concatenate([np.ones((1, N)), 2.0 * np.cos(kx), 2.0 * np.sin(kx)]) / N
    D.flags.writeable = False
    return D


def _series(thetas: np.ndarray, n: int, entangle: bool, template: GateTemplate):
    """Compile a flat stack of edges, ``thetas`` (L, E, P) or (L, E, n, P)
    (say, the live edges of every network layer with the same wiring), to
    their exact Fourier series.

    Returns (K, c, J): the degree K, the coefficients c (E, 2K+1) over the
    basis [1, cos kx (k = 1..K), sin kx (k = 1..K)] and their Jacobian
    J = dc/dthetas, shaped thetas.shape + (2K+1,).  All edges run in one
    adjoint sweep over the 2K+1 nodes; the DFT is then one stacked product
    of the same shape per edge, so an edge's c and J do not depend on which
    edges share the call.
    """
    K = sum(1 for _, s in template.gates if s == "input") * n * thetas.shape[0]
    N = 2 * K + 1
    nodes = (2.0 * np.pi / N) * np.arange(N)
    f, dtheta = _grad(nodes[:, None], thetas, n, entangle, template)
    # c = D f and J = dtheta D^T, contracting the nodes edge by edge
    DT = _dft(K).T
    c = np.matmul(np.ascontiguousarray(f.T)[:, None, :], DT)[:, 0]
    J = np.matmul(np.ascontiguousarray(np.moveaxis(dtheta, 1, -1)), DT)
    return K, c, J


# --- public ops -------------------------------------------------------------


def dr_forward_batch(xs, params: DRParams, clamp: bool = True) -> np.ndarray:
    """<Z> readout of the DR circuit at inputs ``xs`` (radians in [0, pi],
    any shape, 0-d included); the result has the shape of ``xs``.

    Out-of-domain inputs are clamped (with a warning) unless ``clamp`` is
    False, in which case the raw circuit value is returned.  That value is
    2pi-periodic: the readout is a Fourier series with integer frequencies
    up to K (what ``_series`` compiles), whatever the qubit count.
    """
    xs = _clamp_domain(np.asarray(xs, dtype=np.float64), clamp)
    return _forward(xs, params.thetas, params.num_qubits, params.entangle,
                    params.template)
