"""Spherical averages and dyadic maximal functions on finite tori (Z_L)^d.

Fields carry real or complex scalars, or n x n complex matrices, per site.
Spherical averages are convolutions computed through the real DFT: the
sphere is symmetric, so the transform of its normalized indicator is real
and even, and it multiplies the half-spectrum of a real field, or of the
real and imaginary parts of a complex one.  The dyadic maximal function
transforms its field once and shares that half-spectrum across its scales,
so each scale costs one multiply and one inverse transform; a caller that
takes the maximum over many fields, such as the sampled ratio survey of
``ncmax``, builds each scale's symbol once and passes it down.  Nothing is
cached between calls.  The tests keep the one-shift-per-sphere-point
average as the spatial oracle for the spectral one.  The side L is chosen
by callers so that 2t < L for every sphere radius exercised, which makes
the periodic computation agree with the infinite lattice for compactly
supported inputs; for larger spheres points that coincide mod L keep their
multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptySphere, InfeasibleScale
from .lattice import SphereSpec, enumerate_sphere, representation_count

__all__ = [
    "MAX_SITES",
    "TorusField",
    "DyadicRange",
    "spherical_average",
    "dyadic_maximal",
]

MAX_SITES = 1 << 26
MAX_SPHERE_POINTS = 2_000_000  # enumeration cap of every sphere an average uses


def _check_sites(d: int, side: int) -> None:
    if side**d > MAX_SITES:
        raise InfeasibleScale(f"{side}^{d} sites exceeds the {MAX_SITES} budget")


@dataclass(frozen=True)
class TorusField:
    """A field on (Z_L)^d, scalar- or matrix-valued.

    values has shape (L,)*d for scalars and (L,)*d + (n, n) for matrices;
    the dimension d is stored explicitly to disambiguate the two layouts.
    """

    d: int
    values: np.ndarray

    def __post_init__(self) -> None:
        v = self.values
        if v.ndim not in (self.d, self.d + 2):
            raise DomainError(f"array rank {v.ndim} does not fit d={self.d}")
        side = v.shape[0]
        if any(s != side for s in v.shape[: self.d]):
            raise DomainError("all torus axes must share the same side")
        if v.ndim == self.d + 2 and v.shape[-1] != v.shape[-2]:
            raise DomainError("matrix fibers must be square")
        _check_sites(self.d, side)

    @property
    def side(self) -> int:
        return self.values.shape[0]

    @property
    def is_matrix(self) -> bool:
        return self.values.ndim == self.d + 2

    @property
    def fiber(self) -> int:
        return self.values.shape[-1] if self.is_matrix else 1

    @staticmethod
    def scalar(values: np.ndarray) -> "TorusField":
        """Real input stays real (float64); complex input stays complex."""
        values = np.asarray(values, dtype=complex if np.iscomplexobj(values) else np.float64)
        return TorusField(values.ndim, values)

    @staticmethod
    def matrix(d: int, values: np.ndarray) -> "TorusField":
        return TorusField(d, np.asarray(values, dtype=complex))

@dataclass(frozen=True)
class DyadicRange:
    """Dyadic scale exponents m; the scales are t = 2^m, so lam = 4^m."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.exponents:
            raise DomainError("need at least one scale")
        if any(m < 0 for m in self.exponents):
            raise DomainError("exponents must be >= 0")
        ordered = tuple(sorted(set(self.exponents)))
        object.__setattr__(self, "exponents", ordered)

    def scales(self) -> tuple[int, ...]:
        return tuple(2**m for m in self.exponents)

    def check_side(self, side: int) -> None:
        if 2 * max(self.scales()) >= side:
            raise DomainError(
                f"largest sphere diameter {2 * max(self.scales())} does not fit inside side {side}"
            )


def _sphere_points(spec: SphereSpec) -> list[tuple[int, ...]]:
    if representation_count(spec) == 0:
        raise EmptySphere(f"no lattice points with |x|^2 = {spec.lam} in Z^{spec.d}")
    return enumerate_sphere(spec, MAX_SPHERE_POINTS)


def _sphere_symbol(points: list[tuple[int, ...]], d: int, side: int) -> np.ndarray:
    """Real DFT of the normalized sphere indicator, as a read-only half-spectrum.

    The array has the shape of ``rfftn`` over (Z_side)^d: the last torus
    axis keeps frequencies 0..side//2.  Points that coincide mod side
    (possible once 2 sqrt(lam) >= side) add up, so the symbol keeps their
    multiplicity.  The sphere is symmetric under y -> -y, so the transform
    is real; its real part is copied out, so the complex transform is not
    kept alive behind a view.
    """
    from scipy import fft

    weights = np.zeros((side,) * d)
    np.add.at(weights, tuple(np.mod(np.asarray(points), side).T), 1.0 / len(points))
    symbol = np.ascontiguousarray(fft.rfftn(weights).real)
    symbol.flags.writeable = False
    return symbol


def _scale_symbols(d: int, side: int, scales: DyadicRange) -> tuple[np.ndarray, ...]:
    """The sphere symbol of every radius t = 2^m in the range, in ``scales()`` order.

    Built once by a caller that takes the dyadic maximum of many fields on
    the same torus, and passed to ``dyadic_maximal`` as ``symbols=``.  A
    torus over the site budget raises ``InfeasibleScale`` before any allocation.
    """
    _check_sites(d, side)
    return tuple(
        _sphere_symbol(_sphere_points(SphereSpec(d, t * t)), d, side)
        for t in scales.scales()
    )


def _real_view(f: TorusField) -> np.ndarray:
    """The values as float64: complex entries gain a trailing (Re, Im) axis."""
    return f.values[..., np.newaxis].view(np.float64) if np.iscomplexobj(f.values) else f.values


def spherical_average(
    f: TorusField,
    spec: SphereSpec,
    *,
    symbol: np.ndarray | None = None,
    spectrum: np.ndarray | None = None,
) -> TorusField:
    """Mean of f(x - y) over the lattice sphere |y|^2 = lam, with wraparound.

    Computed as one real convolution on the Fourier side: the real sphere
    symbol multiplies the half-spectrum of f over the torus axes and
    broadcasts over the trailing axes.  A real scalar field is transformed
    as it is and its average is real.  A complex or matrix field is
    transformed through its float64 view, whose trailing axis of length 2
    holds the real and imaginary parts, and the result is viewed back as
    complex.

    ``symbol`` (the half-spectrum symbol of ``spec`` on this torus) and
    ``spectrum`` (the ``rfftn`` of f's float64 view over the torus axes)
    let ``dyadic_maximal`` build each symbol once per survey and transform
    each field once; a wrong shape raises ``DomainError``.  Neither is
    written to, so one spectrum serves every scale.  These keywords exist
    so that ``dyadic_maximal`` keeps calling this function once per scale;
    they can fold into one private helper once the benchmark's traced
    layers stop counting calls here.
    """
    from scipy import fft

    if spec.d != f.d:
        raise DomainError(f"sphere dimension {spec.d} != field dimension {f.d}")
    half = (f.side,) * (f.d - 1) + (f.side // 2 + 1,)
    if symbol is None:
        symbol = _sphere_symbol(_sphere_points(spec), f.d, f.side)
    elif symbol.shape != half:
        raise DomainError(f"symbol shape {symbol.shape} is not the half-spectrum shape {half}")
    axes = tuple(range(f.d))
    x = _real_view(f)
    mult = symbol.reshape(symbol.shape + (1,) * (x.ndim - f.d))
    if spectrum is None:
        spectrum = fft.rfftn(x, axes=axes)
        spectrum *= mult
    elif spectrum.shape != half + x.shape[f.d :]:
        raise DomainError(
            f"spectrum shape {spectrum.shape} is not {half + x.shape[f.d:]} for this field"
        )
    else:
        # a fresh product: the shared spectrum serves the other scales
        spectrum = spectrum * mult
    out = fft.irfftn(spectrum, s=(f.side,) * f.d, axes=axes, overwrite_x=True)
    if np.iscomplexobj(f.values):
        out = out.view(complex).reshape(f.values.shape)
    return TorusField(f.d, out)


def dyadic_maximal(
    f: TorusField,
    scales: DyadicRange,
    *,
    symbols: tuple[np.ndarray, ...] | None = None,
) -> TorusField:
    """Pointwise max of |average at t| over t = 2^m in the range (scalar fields).

    f is transformed once and its half-spectrum is shared by every scale,
    each of which costs one multiply and one inverse transform inside
    ``spherical_average``.  ``symbols`` are the per-scale sphere symbols of
    ``_scale_symbols(f.d, f.side, scales)``, which a survey over many
    fields builds once; without them they are built here, once per scale.
    A tuple of the wrong length raises ``DomainError``.
    """
    from scipy import fft

    if f.is_matrix:
        raise DomainError("the pointwise maximal function is scalar-only")
    scales.check_side(f.side)
    if symbols is None:
        symbols = _scale_symbols(f.d, f.side, scales)
    elif len(symbols) != len(scales.exponents):
        raise DomainError(f"{len(symbols)} symbols for {len(scales.exponents)} scales")
    spectrum = fft.rfftn(_real_view(f), axes=tuple(range(f.d)))
    complex_input = np.iscomplexobj(f.values)
    out = None
    for t, symbol in zip(scales.scales(), symbols):
        avg = spherical_average(f, SphereSpec(f.d, t * t), symbol=symbol, spectrum=spectrum)
        # a real average is a fresh array of this call's own, so it is reused in place
        mag = np.abs(avg.values) if complex_input else np.abs(avg.values, out=avg.values)
        out = mag if out is None else np.maximum(out, mag, out=out)
    return TorusField(f.d, out)
