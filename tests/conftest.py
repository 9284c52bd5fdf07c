import numpy as np
import pytest


def random_density_matrix(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    """Random full-rank mixed state: normalized A A^dag with Gaussian A."""
    dim = 1 << n_qubits
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def basis_stack(n_qubits: int, *indices: int) -> np.ndarray:
    """(len(indices), 2^n, 2^n) complex stack of the basis projectors |i><i|, one per index."""
    dim = 1 << n_qubits
    out = np.zeros((len(indices), dim, dim), dtype=complex)
    out[np.arange(len(indices)), indices, indices] = 1.0
    return out


def random_pure_state(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    dim = 1 << n_qubits
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def pauli_strings(n_qubits: int) -> np.ndarray:
    """(2^n, 2^n, 2^n, 2^n) S, S[h, l] the Kronecker product over qubits q (qubit 0 first) of
    PAULIS[2 h_q + l_q] (I, X, Y, Z), h_q and l_q the bits of h and l that belong to q."""
    dim = 1 << n_qubits
    out = np.empty((dim, dim, dim, dim), dtype=complex)
    for h, l in np.ndindex(dim, dim):
        string = np.ones((1, 1))
        for bit in reversed(range(n_qubits)):
            string = np.kron(string, PAULIS[2 * ((h >> bit) & 1) + ((l >> bit) & 1)])
        out[h, l] = string
    return out


def density_from_pauli(stack: np.ndarray) -> np.ndarray:
    """rho = sum_a s_a sigma_a / 2^n of a stack of Pauli vectors laid out as pauli_strings."""
    n = stack.shape[-1].bit_length() - 1
    return np.einsum("...hl,hlij->...ij", stack, pauli_strings(n)) / (1 << n)


def density_factors(factors: tuple) -> tuple:
    """A factored stack as density matrices: its real factors, the angle encoder's Pauli
    forms, converted by density_from_pauli, its complex ones as they are."""
    return tuple(f if np.iscomplexobj(f) else density_from_pauli(f) for f in factors)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(1234))
