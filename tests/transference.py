"""Transference oracles on finite tori: the complex DFT and the operators it diagonalizes.

A multiplier given as a symbol acts through the complex DFT; the symbol maps
an (N, d) array of reduced frequencies to N values and is called once per
grid.  The Laplacian, the sign-flip modulation and the sampled-kernel
convolution act spatially, so each spatial/Fourier identity compares two
independent computations.  Bad arguments raise ``DomainError``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from sphlab import DomainError, TorusField


def reduce_to_torus(x) -> np.ndarray:
    """x - [[x]], the representative of x in [-1/2, 1/2)^d."""
    x = np.asarray(x, dtype=float)
    return x - np.floor(x + 0.5)


def dft(f: TorusField) -> TorusField:
    """f_hat(k) = sum_x f(x) e^(-2 pi i <x, k>/L) over the torus axes."""
    return TorusField(f.d, np.fft.fftn(f.values, axes=tuple(range(f.d))))


def idft(f: TorusField) -> TorusField:
    """Inverse of dft (carries the L^-d normalization)."""
    return TorusField(f.d, np.fft.ifftn(f.values, axes=tuple(range(f.d))))


def frequency_grid(d: int, side: int) -> np.ndarray:
    """Array of shape (side,)*d + (d,): each DFT frequency k/L reduced to [-1/2, 1/2)^d."""
    axis = reduce_to_torus(np.arange(side) / side)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack(mesh, axis=-1)


def _sample_symbol(symbol: Callable[[np.ndarray], np.ndarray], d: int, side: int) -> np.ndarray:
    """The symbol on every DFT frequency of (Z_side)^d, called once; shape (side,)*d."""
    values = np.asarray(symbol(frequency_grid(d, side).reshape(-1, d)))
    if values.shape != (side**d,):
        raise DomainError(f"symbol returned shape {values.shape}, expected ({side**d},)")
    return values.reshape((side,) * d)


def apply_multiplier(f: TorusField, symbol: Callable[[np.ndarray], np.ndarray]) -> TorusField:
    """idft(symbol(k/L) * f_hat): the convolution operator attached to a symbol."""
    mult = _sample_symbol(symbol, f.d, f.side)
    if f.is_matrix:
        mult = mult[..., np.newaxis, np.newaxis]
    return idft(TorusField(f.d, mult * dft(f).values))


def discrete_laplacian(f: TorusField, k: int) -> TorusField:
    """f/2 - (f(. + e_k) + f(. - e_k))/4 along coordinate k (1-based).

    On the Fourier side this multiplies by sin^2(pi k_j / L).
    """
    if not 1 <= k <= f.d:
        raise DomainError(f"coordinate index must be in 1..{f.d}, got {k}")
    up = np.roll(f.values, -1, axis=k - 1)
    down = np.roll(f.values, 1, axis=k - 1)
    return TorusField(f.d, 0.5 * f.values - 0.25 * (up + down))


def sign_flip_modulation(f: TorusField) -> TorusField:
    """(-1)^(sum_j x_j) f(x); shifts the spectrum by the half-frequency (L/2) 1."""
    if f.side % 2:
        raise DomainError(f"side {f.side} is odd; the half-shift is not a lattice frequency")
    signs = np.where(np.indices(f.values.shape[: f.d]).sum(axis=0) % 2 == 0, 1.0, -1.0)
    if f.is_matrix:
        signs = signs[..., np.newaxis, np.newaxis]
    return TorusField(f.d, signs * f.values)


def _check_modulus(f: TorusField, q: int) -> None:
    if q < 1 or f.side % q:
        raise DomainError(f"q = {q} must divide the side {f.side}")


def periodized_multiplier_apply(
    f: TorusField, q: int, base_symbol: Callable[[np.ndarray], np.ndarray]
) -> TorusField:
    """Apply the (1/q)-periodization of a symbol supported in q^-1 Q.

    At each frequency the translated copies have disjoint supports, so the
    periodized value is the base symbol at xi - [[q xi]]/q.
    """
    _check_modulus(f, q)
    return apply_multiplier(f, lambda xis: base_symbol(xis - np.floor(q * xis + 0.5) / q))


def sampled_kernel_apply(
    f: TorusField, q: int, kernel: Callable[[np.ndarray], float]
) -> TorusField:
    """Convolve with the kernel that is q^d * kernel on q Z^d and 0 elsewhere.

    Computed spatially by shifting f through the coarse sublattice, so it is
    an independent route to the periodized multiplier.
    """
    _check_modulus(f, q)
    axes = tuple(range(f.d))
    acc = np.zeros_like(f.values)
    scale = float(q) ** f.d
    for idx in np.ndindex(*([f.side // q] * f.d)):
        shift = tuple(q * i for i in idx)
        weight = scale * float(kernel(np.asarray(shift, dtype=np.int64)))
        if weight != 0.0:
            acc += weight * np.roll(f.values, shift=shift, axis=axes)
    return TorusField(f.d, acc)


def inverse_kernel(
    d: int, side: int, symbol: Callable[[np.ndarray], np.ndarray]
) -> Callable[[np.ndarray], float]:
    """Spatial kernel of a symbol sampled on the (Z_L)^d frequency grid.

    K(y) = L^-d sum_k symbol(k/L) e^(2 pi i <k, y>/L); intended for real
    symmetric symbols, whose kernels are real.
    """
    table = np.fft.ifftn(_sample_symbol(symbol, d, side)).real

    def kernel(y: np.ndarray) -> float:
        return float(table[tuple(np.mod(np.asarray(y, dtype=np.int64), side))])

    return kernel
