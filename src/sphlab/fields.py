"""Spherical averages and dyadic maximal functions on finite tori (Z_L)^d.

Fields carry real or complex scalars, or n x n complex matrices, per site.
Spherical averages are convolutions computed through the real DFT: the
sphere is symmetric, so the transform of its normalized indicator is real
and even, and it multiplies the half-spectrum of a real field, or of the
real and imaginary parts of a complex one.  The transforms are
``numpy.fft``'s: one ``rfft`` over the last torus axis, then complex passes
over the other torus axes written in place (``out=``), and the mirror of
that for the inverse, which spares ``rfftn``'s temporary per axis.
``numpy.fft`` pays a fixed cost per run of adjacent transform lines, so
the torus axes are kept last (a complex field's (Re, Im) axis and any
matrix axes move in front of them), and the half-spectra, and the symbols
a survey shares, hold the last two torus axes swapped in memory.  The
dyadic maximal function transforms its field once and shares that
half-spectrum across its scales, so each scale costs one multiply and one
inverse transform; a caller that takes the maximum over many fields, such
as the sampled ratio survey of ``ncmax``, builds each scale's symbol once
and passes it down.  Nothing is cached between calls.  The tests keep the
one-shift-per-sphere-point average as the spatial oracle for the spectral
one.  The side L is chosen by callers so that 2t < L for every sphere
radius exercised, which makes the periodic computation agree with the
infinite lattice for compactly supported inputs; for larger spheres points
that coincide mod L keep their multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy import fft

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
    weights = np.zeros((side,) * d)
    np.add.at(weights, tuple(np.mod(np.asarray(points), side).T), 1.0 / len(points))
    symbol = np.ascontiguousarray(_torus_rfft(weights, d).real)
    symbol.flags.writeable = False
    return symbol


def _spectral_layout(a: np.ndarray, d: int) -> np.ndarray:
    """A copy of a with its last two axes swapped in memory, viewed in a's shape.

    ``numpy.fft`` pays a fixed cost for every run of transform lines that
    lie one step apart in memory.  With the short half axis (side//2 + 1
    frequencies) innermost, the pass over the torus axis before it pays
    that cost once per side//2 + 1 lines, which made that pass 2 to 3 times
    slower than the others at (d, L) = (5, 12); one copy removes it.  A
    spectrum and a symbol in this layout also multiply without strided
    reads.
    """
    if d < 2:
        return a
    return np.ascontiguousarray(np.swapaxes(a, -2, -1)).swapaxes(-2, -1)


def _torus_rfft(x: np.ndarray, d: int) -> np.ndarray:
    """``rfftn`` of x over its last d axes, broadcast over the leading ones.

    One real transform over the last axis allocates the half-spectrum,
    which is copied into ``_spectral_layout``; the complex passes over the
    other torus axes then overwrite it in place.
    """
    spectrum = _spectral_layout(fft.rfft(x, axis=-1), d)
    for axis in range(x.ndim - d, x.ndim - 1):
        fft.fft(spectrum, axis=axis, out=spectrum)
    return spectrum


def _torus_irfft(spectrum: np.ndarray, d: int, side: int) -> np.ndarray:
    """``irfftn`` over the last d axes with output side ``side``; overwrites ``spectrum``.

    The mirror of ``_torus_rfft``: complex inverse passes in place, a
    C-order copy (none if the spectrum is C-ordered already), then one real
    inverse transform over the last axis, whose explicit length keeps odd
    sides.
    """
    for axis in range(spectrum.ndim - d, spectrum.ndim - 1):
        fft.ifft(spectrum, axis=axis, out=spectrum)
    return fft.irfft(np.ascontiguousarray(spectrum), n=side, axis=-1)


def _scale_symbols(d: int, side: int, scales: DyadicRange) -> tuple[np.ndarray, ...]:
    """The sphere symbol of every radius t = 2^m in the range, in ``scales()`` order.

    Built once by a caller that takes the dyadic maximum of many fields on
    the same torus, and passed to ``dyadic_maximal`` as ``symbols=``; each
    is a read-only copy in ``_spectral_layout``, the layout of the spectra
    it multiplies.  A torus over the site budget raises ``InfeasibleScale``
    before any allocation.
    """
    _check_sites(d, side)
    symbols = tuple(
        _spectral_layout(_sphere_symbol(_sphere_points(SphereSpec(d, t * t)), d, side), d)
        for t in scales.scales()
    )
    for symbol in symbols:
        symbol.flags.writeable = False
    return symbols


def _torus_last(f: TorusField) -> np.ndarray:
    """The values as float64 with the torus axes last.

    A real scalar field is its own array.  Complex entries gain an
    (Re, Im) axis, which moves to the front with any matrix axes, in one
    contiguous copy: lines along a torus axis of the float64 view would lie
    2 or 2 n^2 steps apart and pay ``numpy.fft``'s cost per run of adjacent
    lines every 2 or 2 n^2 lines.
    """
    if not np.iscomplexobj(f.values):
        return f.values
    x = f.values[..., np.newaxis].view(np.float64)
    return np.ascontiguousarray(np.moveaxis(x, range(f.d), range(x.ndim - f.d, x.ndim)))


def _torus_first(out: np.ndarray, f: TorusField) -> np.ndarray:
    """An inverse transform of ``_torus_last(f)`` in f's layout and dtype."""
    if not np.iscomplexobj(f.values):
        return out
    out = np.moveaxis(out, range(out.ndim - f.d, out.ndim), range(f.d))
    return np.ascontiguousarray(out).view(complex).reshape(f.values.shape)


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
    broadcasts over the other axes.  A real scalar field is transformed
    as it is and its average is real.  A complex or matrix field is
    transformed through its float64 view, with the axis of length 2 that
    holds the real and imaginary parts and any matrix axes moved in front
    of the torus axes (``_torus_last``), and the result is viewed back as
    complex.

    ``symbol`` (the half-spectrum symbol of ``spec`` on this torus) and
    ``spectrum`` (the real DFT of ``_torus_last(f)`` over its torus axes)
    let ``dyadic_maximal`` build each symbol once per survey and transform
    each field once; a wrong shape raises ``DomainError``.  Neither is
    written to, so one spectrum serves every scale.  These keywords exist
    so that ``dyadic_maximal`` keeps calling this function once per scale;
    they can fold into one private helper once the benchmark's traced
    layers stop counting calls here.
    """
    if spec.d != f.d:
        raise DomainError(f"sphere dimension {spec.d} != field dimension {f.d}")
    half = (f.side,) * (f.d - 1) + (f.side // 2 + 1,)
    if symbol is None:
        symbol = _sphere_symbol(_sphere_points(spec), f.d, f.side)
    elif symbol.shape != half:
        raise DomainError(f"symbol shape {symbol.shape} is not the half-spectrum shape {half}")
    if spectrum is None:
        spectrum = _torus_rfft(_torus_last(f), f.d)
        spectrum *= symbol
    else:
        lead = f.values.shape[f.d :] + ((2,) if np.iscomplexobj(f.values) else ())
        if spectrum.shape != lead + half:
            raise DomainError(f"spectrum shape {spectrum.shape} is not {lead + half} for this field")
        # a fresh product: the shared spectrum serves the other scales
        spectrum = spectrum * symbol
    return TorusField(f.d, _torus_first(_torus_irfft(spectrum, f.d, f.side), f))


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
    if f.is_matrix:
        raise DomainError("the pointwise maximal function is scalar-only")
    scales.check_side(f.side)
    if symbols is None:
        symbols = _scale_symbols(f.d, f.side, scales)
    elif len(symbols) != len(scales.exponents):
        raise DomainError(f"{len(symbols)} symbols for {len(scales.exponents)} scales")
    spectrum = _torus_rfft(_torus_last(f), f.d)
    complex_input = np.iscomplexobj(f.values)
    out = None
    for t, symbol in zip(scales.scales(), symbols):
        avg = spherical_average(f, SphereSpec(f.d, t * t), symbol=symbol, spectrum=spectrum)
        # a real average is a fresh array of this call's own, so it is reused in place
        mag = np.abs(avg.values) if complex_input else np.abs(avg.values, out=avg.values)
        out = mag if out is None else np.maximum(out, mag, out=out)
    return TorusField(f.d, out)
