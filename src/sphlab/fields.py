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
norms (L for m = 0 and m = L/2, L/2 otherwise), which the symbols carry.

A transform takes one pass per torus axis, and every pass is one
``np.matmul`` over slabs of the torus: torus axis 0 is the batch axis and
an item is one slab x[i], L^(d-1) values times the non-torus axes (a
complex field's (Re, Im) axis, read through the float64 view, and any
matrix axes), small enough to stay in cache.  The forward transform
contracts axes 1..d-1 batched over axis 0, each pass writing its new axis
last within the slab, then axis 0 in column slabs, so the non-torus axes
end up first and the spectrum's torus axes come out rotated by one:
lead + (m_1, ..., m_{d-1}, m_0).  The inverse mirrors it, axis 0 first,
then axes d-1..1, which restores the field's layout.  The symbols come
out of the same forward routine (``_Scratch._symbol``), so their layout
matches by construction, and both directions read the one matrix B.  A
symbol's value depends only on each basis row's frequency, so its passes
read only the cosine rows, and it keeps its first max(d - 3, 0) torus
axes by frequency, L//2 + 1 entries each, and gathers the last min(d, 3)
by each row's frequency; a real field's scratch with K symbols holds
4 L^d + K (L//2 + 1)^max(d-3, 0) L^min(d, 3) doubles besides the basis.  One real
transform takes d L^(d+1) multiply-adds and the basis L^2 doubles;
a torus whose d L^(d+1) passes ``MAX_DENSE_WORK`` raises
``InfeasibleScale`` before any allocation, which allows sides up to
11585, 406, 81, 32, 17 and 11 at d = 1..6.

The dyadic maximal function transforms its field once and shares that
spectrum across its scales, so each scale costs one multiply and one
inverse transform.  Every transform writes into a ``_Scratch`` for one
torus, which also holds the symbol of each sphere it was built for.  A
public call builds its own scratch and returns an array the caller owns;
a caller that takes the maximum over many fields on one torus, such as
the sampled ratio survey of ``ncmax``, builds one scratch and passes it
down, so no scale and no field allocates a buffer or a symbol; that
survey draws each field into the scratch's running maximum, which the
field's forward transform reads before the first scale overwrites it.
Nothing is cached between calls.  The tests keep the one-shift-per-point average
as the spatial oracle and ``numpy.fft`` as the symbols' oracle.  Callers
choose L with 2t < L for every radius exercised, so the periodic average
agrees with the infinite lattice for compactly supported inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleScale
from .lattice import SphereSpec, _check_enumerable, enumerate_sphere, nonempty_count

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
_RESIDUE_BLOCK = 1 << 17  # residues per block of the basis build, 1 MiB of intp


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


def _slabs(rest: int, side: int) -> int:
    """The column slabs of an axis-0 pass over an (L, rest) array.

    L slabs of rest / L columns where each is at least L columns wide,
    else one, the whole array.
    """
    return side if rest % side == 0 and rest >= side * side else 1


def _forward(x: np.ndarray, rows, outs) -> np.ndarray:
    """Contract the d torus axes of x, (L,)*d + lead, axis i with ``rows[i]`` (k_i x L).

    ``outs`` holds one flat buffer per pass, large enough for its output;
    the last pass writes into the last.  Returns that output, lead +
    (m_1, ..., m_{d-1}, m_0): the non-torus axes first, then the torus
    axes rotated by one.  Axes 1..d-1 go first, each one gemm batched over
    axis 0: an item is the slab x[i] read as (L, r) with the axis to
    contract leading, transposed in place, so the new axis goes last
    within the slab and the next torus axis leads.  Axis 0 goes last, x
    read as (L, rest), in the column slabs of ``_slabs``.
    """
    side = x.shape[0]
    for matrix, out in zip(rows[1:], outs):
        r, k = x.size // (side * side), matrix.shape[0]
        items = x.reshape(side, side, r).transpose(0, 2, 1)
        x = np.matmul(items, matrix.T, out=out[: side * r * k].reshape(side, r, k))
    rest, k = x.size // side, rows[0].shape[0]
    slabs = _slabs(rest, side)
    items = x.reshape(side, slabs, rest // slabs).transpose(1, 2, 0)
    return np.matmul(items, rows[0].T, out=outs[-1][: rest * k].reshape(slabs, rest // slabs, k))


def _real_basis(side: int) -> np.ndarray:
    """B, the real Fourier basis of Z_side as rows: cos m for m = 0..L//2, then sin m for m = 1..(L-1)//2.

    Row m at x reads cos or sin at the exact residue (m x) mod L.  The sine
    rows reuse the residues of cosine rows 1..(L-1)//2, so only the L//2 + 1
    distinct rows of residues are built, as intp (``np.take`` would copy
    narrower indices into an intp array of the same shape), a block of
    about ``_RESIDUE_BLOCK`` at a time, so the build peaks near B itself.
    """
    half = side // 2 + 1
    angles = (2.0 * math.pi / side) * np.arange(side)
    cosines, sines = np.cos(angles), np.sin(angles)
    basis = np.empty((side, side))
    step = min(max(_RESIDUE_BLOCK // side, 1), half)
    buffer = np.empty((step, side), dtype=np.intp)
    for start in range(0, half, step):
        stop = min(start + step, half)
        residues = np.multiply.outer(np.arange(start, stop), np.arange(side), out=buffer[: stop - start])
        residues %= side
        # mode="clip" writes straight into out=; every residue is in range
        np.take(cosines, residues, out=basis[start:stop], mode="clip")
        # sine row m, 1 <= m <= (L-1)//2, is basis row half + m - 1
        low, high = max(start, 1), min(stop, side - half + 1)
        if low < high:
            sine_rows = basis[half + low - 1 : half + high - 1]
            np.take(sines, residues[low - start : high - start], out=sine_rows, mode="clip")
    return basis


class _Scratch:
    """Transform buffers, basis and sphere symbols for fields of one shape on one torus.

    ``lead`` is the shape of the axes after the torus axes in
    ``_float_view``: () for a real scalar field, (2,) for a complex one,
    (n, n, 2) for a matrix field.
    - ``basis``: B, the real Fourier basis of Z_side as rows, cosines
      first, read by the passes of both directions;
    - ``freq``: each row's frequency m;
    - ``work``: two flat buffers of prod(lead) L^d doubles, which the
      passes of a transform alternate between; one scale's product is
      written into the first, and its average ends in either;
    - ``spectrum``: the field's coefficients, lead + (L,)*d, its torus
      axes rotated by one: index (..., m_1, ..., m_{d-1}, m_0) holds the
      coefficient of the basis vector with row m_i on torus axis i;
    - ``maximum``: the running dyadic maximum, (L,)*d; a survey may also
      draw its field into it, as ``dyadic_maximal`` reads the field only
      before the first scale writes it, and each symbol's build holds its
      weights and then its gather offsets there;
    - ``symbols``: the read-only sphere symbol of each squared radius in
      ``lams`` over the basis vectors' squared norms, in the spectrum's
      rotated layout, keyed by it (``_sphere_symbol``).  Its first
      k = ``compact`` = max(d - 3, 0) torus axes hold one entry per
      frequency m = 0..L//2, as the symbol depends only on each row's
      frequency, and its last min(d, 3) axes one per basis row:
      (L//2 + 1,)*k + (L,)*(d - k);
    - ``blocks``: the (spectrum index, symbol index) pairs by which
      ``average`` multiplies, one per choice of the cosine or the sine
      rows on each of those k axes; a cosine block reads symbol rows
      0..L//2, a sine block rows 1..(L-1)//2.  Each block's contiguous
      run is the last three axes, L^3 values, as long as those of one
      flat multiply.
    Every pass is one ``np.matmul`` over slabs of the torus, batched over
    torus axis 0 (``_forward``; ``average`` mirrors it).  Whoever builds a
    scratch owns it: an array read from it is overwritten by its next use.
    A torus over the site budget or the dense-work budget, or a sphere of
    more than ``lattice.MAX_SPHERE_POINTS`` points, raises
    ``InfeasibleScale`` before any allocation, and an empty sphere raises
    ``EmptySphere``.
    """

    def __init__(self, lead: tuple[int, ...], d: int, side: int, lams: tuple[int, ...]) -> None:
        _check_sites(d, side)
        _check_dense_work(d, side)
        spheres = [SphereSpec(d, lam) for lam in lams]
        for spec in spheres:
            _check_enumerable(spec, nonempty_count(spec))
        self.lead, self.d, self.side = lead, d, side
        half = side // 2 + 1
        self.freq = np.r_[0:half, 1 : (side + 1) // 2]
        self.basis = _real_basis(side)
        size = math.prod(lead) * side**d
        self.work = (np.empty(size), np.empty(size))
        self.spectrum = np.empty(size).reshape(lead + (side,) * d)
        self.maximum = np.empty((side,) * d)
        self.compact = max(d - 3, 0)
        # (spectrum rows, symbol rows) of the cosines and of the sines, which sides 1 and 2 lack
        cosines, sines = (slice(0, half), slice(0, half)), (slice(half, side), slice(1, side - half + 1))
        rows = [cosines, sines] if side > half else [cosines]
        self.blocks = [
            ((slice(None),) * len(lead) + tuple(s for s, _ in choice), tuple(r for _, r in choice))
            for choice in itertools.product(rows, repeat=self.compact)
        ]
        self.symbols = {spec.lam: self._sphere_symbol(spec) for spec in spheres}

    def _sphere_symbol(self, spec: SphereSpec) -> np.ndarray:
        """The eigenvalue of the sphere average on each basis vector over its squared norm, read-only.

        Built by ``_symbol`` from the sphere's points, so it is laid out as
        the spectrum is, (m_1, ..., m_{d-1}, m_0); the sphere is symmetric
        under permuting the axes, so its values would be the same in any
        order, but a multiplier that is not (``_symbol`` of the points
        +-e_1, say) is read correctly only in this layout.
        """
        return self._symbol(enumerate_sphere(spec))

    def _symbol(self, points: np.ndarray) -> np.ndarray:
        """The multiplier of the mean over ``points`` (N x d), read-only, in the spectrum's layout.

        It is diagonal in the basis only for a point set that is even in
        every coordinate separately, as a sphere is.  The weights grid,
        built in ``maximum``, goes through ``_forward`` in the work
        buffers, which no field has used yet, so its layout is the
        spectrum's.  Every pass reads the cosine rows only, so the grid
        holds (L//2 + 1)^d values, and each axis is divided in place by its
        rows' squared norms.  The first ``compact`` axes stay by frequency;
        the last min(d, 3) are gathered by each basis row's frequency into
        the only new array, through one flat offset per entry of those axes,
        which serves every entry of the compact axes and is built in
        ``maximum``, as the weights are no longer needed.
        """
        weights = self.maximum
        weights.fill(0.0)
        np.add.at(weights, tuple(np.mod(points, self.side).T), 1.0 / len(points))
        half = self.side // 2 + 1
        cosines = _forward(weights, [self.basis[:half]] * self.d, [self.work[i % 2] for i in range(self.d)])
        grid = cosines.reshape((half,) * self.d)
        norms = np.where(2 * self.freq[:half] % self.side == 0, self.side, self.side / 2.0)
        for axis in range(self.d):
            np.divide(grid, norms.reshape((half,) + (1,) * (self.d - 1 - axis)), out=grid)
        offsets, flat = np.zeros((), dtype=np.intp), self.maximum.reshape(-1).view(np.intp)
        for k in range(1, self.d - self.compact + 1):
            offsets = np.add.outer(offsets * half, self.freq, out=flat[: self.side**k].reshape((self.side,) * k))
        symbol = np.empty((half,) * self.compact + offsets.shape)
        out = symbol.reshape((-1,) + offsets.shape)
        np.take(grid.reshape(half**self.compact, -1), offsets, axis=1, out=out, mode="clip")
        symbol.flags.writeable = False
        return symbol

    def forward(self, f: TorusField) -> None:
        """Write f's coefficients into ``spectrum``, one ``_forward`` pass per torus axis.

        Axes 1..d-1 are contracted first, each one gemm batched over the
        slabs of torus axis 0, then axis 0 in column slabs, the last pass
        writing into ``spectrum`` as lead + (m_1, ..., m_{d-1}, m_0).  The
        passes before the last alternate between the work buffers.
        """
        buffers = [self.work[i % 2] for i in range(self.d - 1)] + [self.spectrum.reshape(-1)]
        _forward(_float_view(f), [self.basis] * self.d, buffers)

    def average(self, lam: int) -> np.ndarray:
        """The inverse transform of ``spectrum`` times lam's symbol, (L,)*d + lead, in ``work``.

        The product is written into the first work buffer block by block
        (``blocks``), each block of the spectrum times the symbol rows of
        its frequencies.  The passes mirror ``_forward`` and read its B, as
        the symbol holds the row norms.  Axis 0 goes first: each column
        slab of the product, read as (rest, L), is contracted with B into a
        strided view of its columns of the (L, rest) output.  Then axes d-1..1, each one gemm
        batched over axis 0, an item contracting its slab's last axis and
        writing the new axis first, which leaves the field's layout.
        """
        side, (a, b) = self.side, self.work
        x, symbol = a.reshape(self.spectrum.shape), self.symbols[lam]
        for block, rows in self.blocks:
            np.multiply(self.spectrum[block], symbol[rows], out=x[block])
        rest = x.size // side
        slabs = _slabs(rest, side)
        out = b.reshape(side, slabs, rest // slabs).transpose(1, 2, 0)
        np.matmul(x.reshape(slabs, rest // slabs, side), self.basis, out=out)
        r = rest // side
        for _ in range(self.d - 1):
            np.matmul(self.basis.T, b.reshape(side, r, side).transpose(0, 2, 1), out=a.reshape(side, side, r))
            a, b = b, a
        return b.reshape((side,) * self.d + self.lead)

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
    f's values may be that ``maximum`` itself: f is read only by the
    forward transform, before the first scale writes ``maximum``, so a
    survey draws its fields there and holds no array of its own for them.
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
