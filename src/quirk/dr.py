"""Data re-uploading (DR) activations: n qubits, L layers, exact gradients.

A DR circuit alternates an encoding rotation fed by the input with
trainable rotations fed by angles::

    |0> -- RY(x) RZ(t[0,0]) RX(t[0,1]) -- RY(x) RZ(t[1,0]) RX(t[1,1]) -- ... --< Z >

The readout is <Z> of the final state, a smooth function of x in [-1, 1].
An n-qubit edge runs every gate of a layer on each qubit (with its own
angles), optionally followed by a ring of CNOTs, and reads <Z> on qubit 0.
Gradients with respect to every angle are exact and cost O(L) per sample.
The kernel runs in the eigenframe of the encoding gate, where encoding x
is one phase multiply and each run of trainable gates (with the ring that
ends a layer) is one matrix per (layer, edge), stacked with one variant
per trainable angle, its gradient slot.  The forward sweep carries every
slot in one product per layer, and a reverse sweep of the cotangent alone
reads each layer's gradients in one overlap with them.  The
parameter-shift rule exists in the test suite as an independent oracle,
not here.

Internally everything is vectorized over one batch layout: inputs
``(N, 1)`` against a stack of E edges, thetas ``(L, E, P)`` (one qubit)
or ``(L, E, n, P)``, give values ``(N, E)``.

The kernel is also a compiler.  With K encoding gates in all, the readout
is exactly a real trigonometric polynomial of degree K in x, so ``_series``
runs those sweeps once on 2K+1 nodes for a flat stack of edges and
turns each edge's values and angle gradients into its Fourier coefficients
and their Jacobian with a fixed real DFT, the same product for every edge.
It is a plain function: the network memoises its results, once per network
state.  The network evaluates and trains from those coefficients, so the
derivative in x comes from the series, not from the circuit; the
statevector kernel serves ``dr_forward_batch`` and the compile step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .data import check_count

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

    def degree(self, qubits: int, layers: int) -> int:
        """An edge's Fourier degree K: one frequency per encoding gate."""
        return (len(self.gates) - self.params_per_layer) * qubits * layers


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
        check_count("num_qubits", self.num_qubits, 1)
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


# --- kernel -----------------------------------------------------------------
# The kernel runs in the frame of the encoding gate.  With V the eigenvectors
# of its Pauli on every qubit, the encoding on n qubits is
# V diag(exp(-i w_a x)) V^dagger with w_a = (n - 2 popcount a) / 2, one phase
# multiply that every edge shares.  Everything from one encoding gate to the
# next (the trainable gates, the CNOT ring that ends a layer and the change
# to the next encoding's frame) is one 2^n x 2^n matrix per (layer, edge),
# stacked over its gradient slots.  A state is (2^n, E, N): amplitudes
# (qubit 0 is the most significant bit of the index), edges, inputs.

_PAULI = {"rx": np.array([[0, 1], [1, 0]]), "ry": np.array([[0, -1j], [1j, 0]]),
          "rz": np.diag([1, -1])}
# the +1 and -1 eigenvectors of each gate's Pauli, as columns
_EIGEN = {"rx": np.array([[1, 1], [1, -1]]) / np.sqrt(2),
          "ry": np.array([[1, 1], [1j, -1j]]) / np.sqrt(2), "rz": np.eye(2)}


class _Plan(NamedTuple):
    """What a wiring fixes, in the encoding frames.  ``w`` (2^n,) are the
    encoding's phase frequencies and ``psi0`` is |0...0> in the first
    encoding's frame.  A stage is an encoding gate and the trainable gates
    after it, up to the next encoding gate, as (params, gens, fixed,
    variant): the gates' parameter indices; their generators -i P in the
    stage's frame, so that a gate by angle a is cos(a/2) I + sin(a/2) gen;
    the fixed factor that follows them (the ring if the stage ends a layer,
    then the change to the next encoding's frame; None when that is the
    identity); and each gradient slot's variant per qubit (see ``_build``).
    The readout Z_0 in the first frame is a signed permutation,
    (Z_0 psi)_a = sign_a psi_perm_a."""

    w: np.ndarray
    psi0: np.ndarray
    stages: tuple
    perm: np.ndarray
    sign: np.ndarray


@lru_cache(maxsize=None)
def _plan(n: int, entangle: bool, template: GateTemplate) -> _Plan:
    d = 2**n
    stages = []
    for kind, source in template.gates:
        if source == "input":
            stages.append((kind, [], []))
        else:
            V = _EIGEN[stages[-1][0]]
            stages[-1][1].append(source)
            stages[-1][2].append(np.round(V.conj().T @ (-1j * _PAULI[kind]) @ V))
    idx = np.arange(d)
    entangled = entangle and n > 1
    ring = np.eye(d)
    for c in range(n if entangled else 0):  # CNOTs 0->1, ..., n-1->0
        cbit, tbit = 1 << (n - 1 - c), 1 << (n - 1 - (c + 1) % n)
        ring = ring[np.where(idx & cbit, idx ^ tbit, idx)]
    frames = [reduce(np.kron, [_EIGEN[kind]] * n) for kind, _, _ in stages]
    plan = []
    for i, (kind, params, gens) in enumerate(stages):
        j = (i + 1) % len(stages)
        fixed = None
        if (entangled and j == 0) or stages[j][0] != kind:
            fixed = frames[j].conj().T @ (ring if j == 0 else np.eye(d)) @ frames[i]
        # slot 1 + q P + j runs variant 1 + j on qubit q, variant 0 elsewhere
        variant = np.kron(np.eye(n, dtype=int), np.arange(1, len(params) + 1)[:, None])
        variant = np.concatenate([np.zeros((1, n), dtype=int), variant])
        plan.append((np.array(params, dtype=int), gens, fixed, variant))
    V = frames[0]
    Z0 = np.round(V.conj().T @ np.diag(np.where(idx < d // 2, 1.0, -1.0)) @ V)
    perm = np.abs(Z0).argmax(axis=1)
    w = (n - 2 * np.array([bin(a).count("1") for a in range(d)])) / 2
    return _Plan(w, V.conj()[0], tuple(plan), perm, Z0[idx, perm])


def _build(thetas: np.ndarray, n: int, stages: tuple) -> list:
    """Per stage of a ``_Plan``, its matrices (L, E, (1 + n P_s) 2^n, 2^n) for
    an edge stack ``thetas``: rows [0, 2^n) take a state just after the
    stage's encoding gate to the next encoding's frame, and gradient slot
    1 + q P_s + j does so with the stage's gate j on qubit q run as
    R(a + pi), twice that gate's derivative.  One cos and one sin of every
    angle feed them all.  The build keeps its 2x2 and 2^n x 2^n axes in
    front, so that each step is a few long elementwise products."""
    half = (thetas if n > 1 else thetas[:, :, None]).transpose(3, 2, 0, 1) / 2
    cos, sin = np.cos(half), np.sin(half)  # (P, n, L, E)
    blocks = []
    for params, gens, fixed, variant in stages:
        # variant v of a qubit's gates runs gate v - 1 as -sin(a/2) I + cos(a/2) gen
        own = np.eye(len(params), len(params) + 1, 1, dtype=bool)[:, :, None, None, None]
        c, s = cos[params, None], sin[params, None]
        alpha, beta = np.where(own, -s, c), np.where(own, c, s)  # (gate, variant, n, L, E)
        # a qubit's gates and their products have the form [[u, -v*], [v, u*]]
        # of SU(2), so each is kept as (u, v)
        u, v = np.ones(alpha.shape[1:]), np.zeros(alpha.shape[1:])
        for j, (a, b, gen) in enumerate(zip(alpha, beta, gens)):
            uj, vj = a + b * gen[0, 0], b * gen[1, 0]
            u, v = (uj, vj) if j == 0 else (uj * u - vj.conj() * v, vj * u + uj.conj() * v)
        # each slot's kron over the qubits of their variants
        w = np.array([[u, -v.conj()], [v, u.conj()]])[:, :, variant, np.arange(n)]
        m = w[:, :, :, 0]
        for q in range(1, n):
            m = m[:, None, :, None] * w[None, :, None, :, :, q]
            m = m.reshape((2 * len(m), 2 * m.shape[2]) + m.shape[4:])
        d, _, S, L, E = m.shape
        m = m.transpose(4, 0, 3, 2, 1)  # (E, d, L, S, d): an edge's matrices side by side
        if fixed is not None:  # one product per edge for all layers and slots
            m = (fixed @ m.reshape(E, d, L * S * d)).reshape(m.shape)
        blocks.append(m.transpose(2, 0, 3, 1, 4).reshape(L, E, S * d, d))
    return blocks


def _forward(xs: np.ndarray, thetas: np.ndarray, n: int, entangle: bool,
             template: GateTemplate) -> np.ndarray:
    """<Z> (N, E) for inputs ``xs`` (N, 1) against an edge stack
    ``thetas`` (L, E, P) for n = 1 or (L, E, n, P): the values of
    ``_grad``, so that both give a sample the same bits."""
    return _grad(xs, thetas, n, entangle, template)[0]


# samples per block of _grad's batch: a block keeps each stage's state and
# gradient slots until the reverse sweep has read them
_BLOCK = 2048


def _grad(xs: np.ndarray, thetas: np.ndarray, n: int, entangle: bool,
          template: GateTemplate):
    """Forward value plus exact per-sample angle gradients in the layout of
    ``_forward``: (f, dtheta) with f (N, E) and dtheta (L, N) + thetas.shape[1:],
    each entry at its (layer, input, edge, [qubit,] param-index) slot,
    computed in blocks of about ``_BLOCK`` samples along the inputs."""
    L, E = thetas.shape[:2]
    plan = _plan(n, entangle, template)
    blocks = _build(thetas, n, plan.stages)
    # the inputs padded with zeros to whole groups of 4: zgemm rounds a
    # column by a path that depends on the column count mod 4, so a sample
    # gets the same bits in any batch and any block
    x = np.zeros(-(-len(xs) // 4) * 4)
    x[:len(xs)] = xs[:, 0]
    phase = np.exp(-1j * np.multiply.outer(plan.w, x))
    f = np.empty((E, len(x)))
    g = np.empty((L, n, template.params_per_layer, E, len(x)))
    step = 4 * max(1, _BLOCK // (4 * max(1, E)))  # an all-pruned wiring group compiles E = 0
    for a in range(0, len(x), step):
        _sweeps(phase[:, a:a + step], blocks, plan, f[:, a:a + step], g[..., a:a + step])
    dtheta = g[..., :len(xs)].transpose(0, 4, 3, 1, 2)
    return f[:, :len(xs)].T, dtheta if n > 1 else dtheta[..., 0, :]


def _sweeps(phase: np.ndarray, blocks: list, plan: _Plan, f: np.ndarray, g: np.ndarray):
    # _grad on one block of inputs, the encoding's phases (2^n, N): writes f
    # (E, N) and g (L, n, P, E, N).  States are (2^n, E, N); a product reads
    # and writes them through (E, 2^n, N) views, one BLAS call per edge.  The
    # forward sweep keeps every stage's product, the state over its
    # gradient slots; the reverse sweep carries mu = conj(lam), lam =
    # Z_0 psi_final pulled back to a stage's end, where d<Z>/dtheta of a slot
    # is Re <lam|slot>, and a stage B D pulls mu back to D B^T mu
    _, psi, stages, perm, sign = plan
    d, (E, N) = len(psi), f.shape
    psi, phase = psi[:, None, None], phase[:, None]
    outs = []
    for l in range(len(g)):
        for B in blocks:
            outs.append(np.empty((B.shape[2], E, N), dtype=complex))
            np.matmul(B[l], (psi * phase).transpose(1, 0, 2), out=outs[-1].transpose(1, 0, 2))
            psi = outs[-1][:d]
    lam = sign[:, None, None] * psi[perm]
    f[...] = (psi.conj() * lam).real.sum(axis=0)
    mu = lam.conj()
    for k in range(len(outs) - 1, -1, -1):
        # released once read, so that the sweep's temporaries reuse their
        # memory instead of growing the heap, which glibc then trims
        l, i = divmod(k, len(stages))
        params = stages[i][0]
        slots = outs.pop()[d:].reshape(g.shape[1], len(params), d, E, N)
        g[l][:, params] = (slots * mu).real.sum(axis=2)
        if k:
            back = np.empty_like(mu)
            np.matmul(blocks[i][l][:, :d].transpose(0, 2, 1), mu.transpose(1, 0, 2),
                      out=back.transpose(1, 0, 2))
            mu = back * phase


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
    forward and one reverse sweep over the 2K+1 nodes (see ``_grad``); the
    DFT is then one product for c and one for J per edge, each of the same
    shape for every edge, so an edge's c and J do not depend on which edges
    share the call.
    """
    K = template.degree(n, thetas.shape[0])
    N = 2 * K + 1
    nodes = (2.0 * np.pi / N) * np.arange(N)
    f, dtheta = _grad(nodes[:, None], thetas, n, entangle, template)
    # c = D f and J = dtheta D^T, contracting the nodes edge by edge, J in
    # one (L n P, 2K+1) product per edge
    DT = _dft(K).T
    c = np.matmul(np.ascontiguousarray(f.T)[:, None, :], DT)[:, 0]
    (L, E), S = thetas.shape[:2], math.prod(thetas.shape[2:])
    J = np.matmul(dtheta.reshape(L, N, E, S).transpose(2, 0, 3, 1).reshape(E, L * S, N), DT)
    return K, c, J.reshape((E, L) + thetas.shape[2:] + (N,)).swapaxes(0, 1)


# --- public ops -------------------------------------------------------------


def dr_forward_batch(xs, params: DRParams) -> np.ndarray:
    """<Z> readout of the DR circuit at finite inputs ``xs`` (radians, any
    shape, 0-d included); the result has the shape of ``xs``.

    Any finite x is evaluated as it is: the readout is 2pi-periodic, a
    Fourier series with integer frequencies up to K (what ``_series``
    compiles), whatever the qubit count.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if not np.isfinite(xs).all():
        raise ValueError("inputs must be finite")
    f = _forward(xs.reshape(-1, 1), params.thetas[:, None], params.num_qubits,
                 params.entangle, params.template)
    return f.reshape(xs.shape)
