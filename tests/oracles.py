"""Independent reference constructions used as test oracles.

Operators are built from literal 2x2 matrices and np.kron, deliberately
bypassing the package's bit-arithmetic Hamiltonian assembly so the two routes
check each other.  Spectra, ground states and propagation are computed with
dense eigendecompositions of the full 2**N space, bypassing the package's
total-S^z sectors.
"""

from dataclasses import dataclass

import numpy as np

from spinsplice.chain import DEGENERACY_RTOL, DegeneracyError
from spinsplice.dynamics import integration_grid

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
PAULI = {"x": SX, "y": SY, "z": SZ}


def kron_site(op, site, n):
    """Embed a 2x2 operator at a site (1-based, most significant first)."""
    out = np.array([[1.0 + 0j]])
    for s in range(1, n + 1):
        out = np.kron(out, op if s == site else ID2)
    return out


def kron_exchange(i, j, n):
    """sigma_i . sigma_j from explicit tensor products."""
    return sum(kron_site(p, i, n) @ kron_site(p, j, n) for p in (SX, SY, SZ))


def kron_hamiltonian(n, topology, coupling, field_z, cut_bonds):
    """Full (h0, v) split built independently of the package."""
    bonds = [(k, k + 1) for k in range(1, n)]
    if topology == "ring":
        bonds.append((1, n))
    dim = 2**n
    h0 = np.zeros((dim, dim), dtype=complex)
    v = np.zeros((dim, dim), dtype=complex)
    cut = {tuple(sorted(b)) for b in cut_bonds}
    for (i, j) in bonds:
        term = coupling * kron_exchange(i, j, n)
        if (i, j) in cut:
            v += term
        else:
            h0 += term
    for s in range(1, n + 1):
        h0 += field_z * kron_site(SZ, s, n)
    return h0, v


def taylor_expm(a, order=12):
    """Truncated Taylor series of exp(a); oracle for small-norm exponentials."""
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, order + 1):
        term = term @ a / k
        out = out + term
    return out


def pauli_site_operator(site, axis, n_spins):
    """Pauli operator on one site, embedded in the full 2**n_spins space."""
    if not 1 <= site <= n_spins:
        raise ValueError(f"site {site} out of range 1..{n_spins}")
    if axis not in PAULI:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    return kron_site(PAULI[axis], site, n_spins)


def commutator_frobenius_norm(a, b):
    """Frobenius norm of the commutator ab - ba; zero iff a and b commute."""
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"operands must be square matrices of equal shape, got {a.shape} and {b.shape}")
    return float(np.linalg.norm(a @ b - b @ a, ord="fro"))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in ascending order with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def decompose(h):
    """Full dense eigendecomposition of a Hermitian (or real symmetric) matrix."""
    w, q = np.linalg.eigh(h)
    return SpectralDecomposition(w, q)


def step_unitary(h0, v, g_value, dt):
    """One evolution factor exp(-i (h0 + g v) dt) as an explicit matrix."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    w, q = np.linalg.eigh(h0 + g_value * v)
    qc = q.astype(complex)
    return (qc * np.exp(-1j * w * dt)) @ qc.conj().T


def dense_propagate(h0, v, schedule, psi0, n_steps):
    """Final state as a product of full-space step_unitary factors, one per
    step of integration_grid at its midpoint coupling."""
    grid = integration_grid(schedule, n_steps)
    psi = np.asarray(psi0, dtype=complex)
    for lo, hi in zip(grid[:-1], grid[1:]):
        psi = step_unitary(h0, v, float(schedule.value(0.5 * (lo + hi))), hi - lo) @ psi
    return psi


def dense_ground_state(h, continuity_reference=None, rtol=DEGENERACY_RTOL):
    """(energy, state, degenerate, gap) of h from one dense eigh of the full
    space, degeneracy resolved toward the unique ground state of the reference."""
    w, q = np.linalg.eigh(h)
    threshold = rtol * float(w[-1] - w[0])
    gap = float(w[1] - w[0])
    if gap > threshold:
        return float(w[0]), q[:, 0], False, gap
    if continuity_reference is None:
        raise DegeneracyError("ground state is degenerate and no continuity reference was supplied")
    wr, qr = np.linalg.eigh(continuity_reference)
    if wr[1] - wr[0] <= rtol * float(wr[-1] - wr[0]):
        raise DegeneracyError("unresolvable degeneracy: the perturbed reference Hamiltonian is degenerate too")
    k = int(np.searchsorted(w, w[0] + threshold, side="right"))
    coeff = q[:, :k].conj().T @ qr[:, 0]
    return float(w[0]), q[:, :k] @ (coeff / np.linalg.norm(coeff)), True, gap


def ground_fidelity(psi, h_instant, continuity_reference=None):
    """|<ground of h_instant | psi>|, degeneracy-resolved via the reference."""
    return float(abs(dense_ground_state(h_instant, continuity_reference)[1].conj() @ psi))
