"""Data re-uploading (DR) activations: n qubits, L layers, exact gradients.

A DR circuit alternates an encoding rotation fed by the input with
trainable rotations fed by angles::

    |0> -- RY(x) RZ(t[0,0]) RX(t[0,1]) -- RY(x) RZ(t[1,0]) RX(t[1,1]) -- ... --< Z >

The readout is <Z> of the final state, a smooth function of x in [-1, 1].
An n-qubit edge runs every gate of a layer on each qubit (with its own
angles), optionally followed by a ring of CNOTs, and reads <Z> on qubit 0.
Gradients with respect to every angle are exact and cost O(L) per sample:
the forward sweep carries, within each circuit layer, one tangent per
trainable angle, and a reverse sweep of the cotangent alone reads each
layer's gradients in one overlap with them.  The parameter-shift rule
exists in the test suite as an independent oracle, not here.

Internally everything is vectorized: the kernel accepts an input array of
any shape together with a stacked theta array ``(L, ..., P)`` (one qubit)
or ``(L, ..., n, P)`` whose middle axes broadcast against the input.

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
# only reorders the list.  Gates read their coefficients from one table per
# call (``_coeffs``).


def _gate_coeffs(kind: str, a):
    # (u, v) of rotations by the angles a, rx's -i sin folded into v; all
    # complex, as numpy casts a real factor of a complex product per call
    if kind == "rz":
        p = np.exp(-0.5j * np.asarray(a))
        return p, np.conj(p)
    half = a / 2.0
    v = np.sin(half).astype(np.complex128)
    return np.cos(half).astype(np.complex128), -1j * v if kind == "rx" else v


def _derived(kind: str, u, v):
    # (u, v) of the transposed rotations (G^T = G^-1 for ry, G for rx, rz)
    # and of rotations by a + pi: -i P G, P the generator, twice dG/da
    if kind == "rz":
        return (u, v), (-1j * u, 1j * v)
    return ((u, v), (v.imag, -1j * u)) if kind == "rx" else ((u, -v), (-v, u))


def _gate_apply(kind: str, coeffs, s0, s1):
    u, v = coeffs
    if kind == "rx":
        return u * s0 + v * s1, v * s0 + u * s1
    if kind == "ry":
        return u * s0 - v * s1, v * s0 + u * s1
    return u * s0, v * s1  # rz


@lru_cache(maxsize=None)
def _ops(n: int, entangle: bool, template: GateTemplate, L: int) -> tuple:
    """The circuit as a flat op list, layer by layer.  A rotation is
    (kind, index, pairs): index is None for an encoding gate, else (p, (l, q))
    for parameter p on qubit q of layer l, and the gate mixes the amplitude
    pairs (i, i | bit) of its qubit.  An entangling ring of CNOTs
    (0->1, ..., n-1->0) ends a layer as ("cnot", perm, inverse) with
    new_state[i] = state[perm[i]]."""
    dim = 2**n
    ops = []
    for l in range(L):
        for kind, source in template.gates:
            for q in range(n):
                bit = 1 << (n - 1 - q)
                pairs = tuple((i, i | bit) for i in range(dim) if not i & bit)
                ops.append((kind, None if source == "input" else (source, (l, q)), pairs))
        if entangle and n > 1:
            perm = list(range(dim))
            for c in range(n):
                cbit, tbit = 1 << (n - 1 - c), 1 << (n - 1 - (c + 1) % n)
                perm = [perm[i ^ tbit if i & cbit else i] for i in range(dim)]
            inverse = sorted(range(dim), key=perm.__getitem__)
            ops.append(("cnot", tuple(perm), tuple(inverse)))
    return tuple(ops)


def _coeffs(xs: np.ndarray, thetas: np.ndarray, n: int, template: GateTemplate,
            batch: tuple, grad: bool) -> dict:
    """Every gate's (u, v), one ``_gate_coeffs`` call per template entry
    over all layers, qubits and edges; with ``grad`` also its transposes'
    and its gates' on ``_sweeps``' tangent slots."""
    nd = thetas.ndim - (n > 1)
    angles = (thetas if n > 1 else thetas[..., None, :]).transpose(
        (nd, 0, nd - 1) + tuple(range(1, nd - 1)))
    angles = angles.reshape(angles.shape[:3] + (1,) * (len(batch) + 2 - nd) + angles.shape[3:])
    slots = np.arange(1 + n * template.params_per_layer)
    table = {}
    for kind, source in template.gates:
        key = kind if source == "input" else source
        if key in table:
            continue
        fwd = _gate_coeffs(kind, xs if source == "input" else angles[source])
        if not grad:
            table[key] = (fwd,)
        elif source == "input":
            table[key] = fwd, _derived(kind, *fwd)[0], fwd
        else:  # slot 1 + p n + q runs -i P G at p's gate on qubit q
            tr, der = _derived(kind, *fwd)
            own = (slots == 1 + n * source + np.arange(n)[:, None]).reshape(
                (n, -1) + (1,) * len(batch))
            table[key] = fwd, tr, tuple(np.where(own, d[:, :, None], c[:, :, None])
                                         for c, d in zip(fwd, der))
    return table


def _setup(xs: np.ndarray, thetas: np.ndarray, n: int):
    # returns (batch shape, |0...0>); thetas end in (P,) or (n, P)
    batch = np.broadcast_shapes(xs.shape, thetas.shape[1:-1] if n == 1 else thetas.shape[1:-2])
    state = [np.ones(batch, dtype=np.complex128)]
    state += [np.zeros(batch, dtype=np.complex128) for _ in range(2**n - 1)]
    return batch, state


def _sweep(state: list, ops, table: dict, which: int = 0) -> list:
    """Run ``ops`` on ``state`` in place: the ops (``which`` = 0), their
    transposes (1) or the ops on tangent slots (2)."""
    for kind, index, pairs in ops:
        if kind == "cnot":  # index holds perm, pairs its inverse
            state[:] = [state[i] for i in (pairs if which == 1 else index)]
            continue
        if index is None:
            coeffs = table[kind][which]
        else:
            u, v = table[index[0]][which]
            coeffs = u[index[1]], v[index[1]]
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
    batch, state = _setup(xs, thetas, n)
    ops = _ops(n, entangle, template, thetas.shape[0])
    return _z0(_sweep(state, ops, _coeffs(xs, thetas, n, template, batch, False)))


# samples per block of _grad's batch: a block keeps each circuit layer's
# tangents until the reverse sweep has read them
_BLOCK = 2048


def _grad(xs: np.ndarray, thetas: np.ndarray, n: int, entangle: bool,
          template: GateTemplate):
    """Forward value plus exact per-sample angle gradients.

    Returns (f, dtheta) with f shaped like the broadcast batch and dtheta
    shaped (L,) + batch + thetas' trailing (P,) or (n, P), each entry at
    its (layer, [qubit,] param-index) slot, in blocks of ``_BLOCK`` samples.
    """
    tail = thetas.shape[thetas.ndim - 1 - (n > 1):]
    batch = np.broadcast_shapes(xs.shape, thetas.shape[1:thetas.ndim - len(tail)])
    step = max(1, _BLOCK // max(1, int(np.prod(batch[1:]))))
    if not batch or batch[0] <= step:
        return _sweeps(xs, thetas, n, entangle, template)
    cut_x = xs.ndim == len(batch) and xs.shape[0] > 1
    cut_t = thetas.ndim - 1 - len(tail) == len(batch) and thetas.shape[1] > 1
    f, dtheta = np.empty(batch), np.empty(thetas.shape[:1] + batch + tail)
    for a in range(0, batch[0], step):
        f[a:a + step], dtheta[:, a:a + step] = _sweeps(
            xs[a:a + step] if cut_x else xs, thetas[:, a:a + step] if cut_t else thetas,
            n, entangle, template)
    return f, dtheta


def _sweeps(xs: np.ndarray, thetas: np.ndarray, n: int, entangle: bool,
            template: GateTemplate):
    # _grad on one block.  Within a layer amplitude i stacks psi_i over one
    # slot per trainable gate, 1 + p n + q for parameter p on qubit q; each
    # slot runs the layer as psi does but its own gate G as -i P G, so it
    # ends holding twice the derivative of the layer's output
    batch, psi = _setup(xs, thetas, n)
    L, P = thetas.shape[0], template.params_per_layer
    ops = _ops(n, entangle, template, L)
    table = _coeffs(xs, thetas, n, template, batch, True)
    per = len(ops) // L
    psi = [s[None] for s in psi]
    tangents = []
    for l in range(L):
        _sweep(psi, ops[l * per:(l + 1) * per], table, 2)
        tangents.append([s[1:] for s in psi])
        psi = [s[:1] for s in psi]
    psi = [s[0] for s in psi]
    f = _z0(psi)

    # the reverse sweep carries mu = conj(lam), lam = Z_0 psi_N: at a layer's
    # end d<Z>/dtheta = Re <lam|slot>, and G^T mu = conj(G^dagger lam)
    half = len(psi) // 2
    mu = [np.conj(s) if i < half else -np.conj(s) for i, s in enumerate(psi)]
    g = np.empty((L, n * P) + batch)
    for l in range(L - 1, -1, -1):
        # released once read, so that the sweep's temporaries reuse their
        # memory instead of growing the heap, which glibc then trims
        slots = tangents.pop()
        acc = mu[0] * slots[0]
        for a, t in zip(mu[1:], slots[1:]):
            acc += a * t
        g[l] = acc.real
        if l:
            _sweep(mu, reversed(ops[l * per:(l + 1) * per]), table, 1)
    dtheta = np.moveaxis(g.reshape((L, P, n) + batch), (1, 2), (-1, -2))
    return f, dtheta if n > 1 else dtheta[..., 0, :]


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
    DFT is then one stacked product of the same shape per edge, so an
    edge's c and J do not depend on which edges share the call.
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
