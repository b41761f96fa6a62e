"""One-sided Fourier coefficient arithmetic on the circle.

Every function here manipulates truncated coefficient vectors ``c[0..M]``
representing ``f(x) = sum_{n=0}^{M} c[n] e^{inx}``.  Because all frequencies
are nonnegative, products are lower triangular in frequency: entry ``n`` of a
convolution depends only on entries ``<= n`` of the factors, so truncated
results agree exactly with the untruncated ones on the retained modes.  That
exactness is the backbone of every consistency check in this package; there
is deliberately no collocation grid and no FFT.  The product kernel takes
arrays of shape ``(M+1, ...)``: axis 0 is the mode axis and any trailing
axes are a batch (panel nodes, sample times), so a whole trajectory is
multiplied in one call.

Convention: the analysis integral carries a ``1/2pi`` factor, so the
coefficient vector of a constant ``c`` is ``c * delta_0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import comb
from typing import Mapping

import numpy as np

__all__ = [
    "DispersionKind",
    "EquationSpec",
    "SpectralState",
    "TruncationMismatchError",
    "convolve",
    "power",
    "sobolev_norm",
    "derivative_coeffs",
    "dispersion_mu",
    "dispersion_symbol",
]


class TruncationMismatchError(ValueError):
    """Raised when two coefficient arrays of different truncation (or of
    different batch shape) meet."""


class DispersionKind(Enum):
    SCHRODINGER = "schrodinger"
    AIRY_TYPE = "airy_type"


def _as_coeffs(a) -> np.ndarray:
    c = np.asarray(getattr(a, "coeffs", a), dtype=complex)
    if c.ndim == 0:
        raise ValueError("coefficients need a mode axis, got a scalar")
    return c


def _along_modes(v: np.ndarray, c: np.ndarray) -> np.ndarray:
    """A per-mode vector shaped to broadcast against ``c`` along axis 0."""
    return v.reshape(v.shape + (1,) * (c.ndim - 1))


@dataclass(frozen=True, eq=False)
class SpectralState:
    """A truncated one-sided spectrum ``u(x) = sum_{n=0}^{M} coeffs[n] e^{inx}``
    tagged with a time stamp.

    Immutable; the coefficient array is made read-only at construction.
    """

    coeffs: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size < 2:
            raise ValueError("coeffs must be a 1-D vector with truncation M >= 1")
        if not np.all(np.isfinite(c.view(float))):
            raise ValueError("coefficients must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "time", float(self.time))

    @property
    def truncation(self) -> int:
        return self.coeffs.size - 1

    @classmethod
    def from_modes(cls, modes: Mapping[int, complex], truncation: int,
                   time: float = 0.0) -> "SpectralState":
        c = np.zeros(truncation + 1, dtype=complex)
        for n, a in modes.items():
            if not 0 <= n <= truncation:
                raise ValueError(f"mode {n} outside [0, {truncation}]")
            c[n] = a
        return cls(c, time)

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "coeffs": np.stack([self.coeffs.real, self.coeffs.imag],
                               axis=-1).tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SpectralState":
        """Inverse of ``to_dict``; an entry of ``coeffs`` that is not a
        ``[re, im]`` pair raises ValueError naming its index."""
        coeffs = []
        for i, entry in enumerate(d["coeffs"]):
            try:
                re, im = entry
            except (TypeError, ValueError):
                raise ValueError(f"coeffs entry {i} is not a [re, im] pair: "
                                 f"{entry!r}") from None
            coeffs.append(complex(re, im))
        return cls(np.array(coeffs), float(d.get("time", 0.0)))


def _validate_nonlin(coeffs: Mapping[int, complex]) -> dict:
    out = {}
    for deg, lam in coeffs.items():
        deg = int(deg)
        if deg < 0:
            raise ValueError("nonlinearity degrees must be >= 0")
        lam = complex(lam)
        if not np.isfinite(lam):
            raise ValueError(f"nonlinearity coefficient of degree {deg} must "
                             f"be finite, got {lam!r}")
        if lam != 0:
            out[deg] = lam
    if not out:
        raise ValueError("at least one nonlinearity coefficient must be nonzero")
    return out


@dataclass(frozen=True)
class EquationSpec:
    """Which equation is being solved.

    ``u_t - i mu(D) u = (sum_l lambda_l u^l) u_x`` where ``mu`` is the
    dispersion symbol and ``nonlin_coeffs`` maps degree ``l`` to ``lambda_l``.
    Degree 0 is allowed and denotes the constant-coefficient transport term
    ``lambda_0 u_x`` (the linear equation is the special case where only
    degree 0 is present).

    Dispersion symbols: SCHRODINGER gives ``mu(n) = |n|^alpha``, AIRY_TYPE
    gives ``mu(n) = n |n|^(alpha-1)``.  On one-sided spectra (n >= 0) the two
    coincide with ``n^alpha``, which is computed exactly in integer
    arithmetic when ``alpha`` is an integer.
    """

    alpha: float
    nonlin_coeffs: Mapping[int, complex]
    dispersion_kind: DispersionKind = DispersionKind.SCHRODINGER

    def __post_init__(self):
        if not np.isfinite(self.alpha) or self.alpha < 1:
            raise ValueError("alpha must be a finite real >= 1")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "nonlin_coeffs", _validate_nonlin(self.nonlin_coeffs))

    @classmethod
    def pure_power(cls, k: int, alpha: float,
                   kind: DispersionKind = DispersionKind.SCHRODINGER,
                   lam: complex = 1.0) -> "EquationSpec":
        """The single-term nonlinearity ``lam * u^k u_x``."""
        if k < 0:
            raise ValueError("k must be >= 0")
        return cls(alpha=alpha, nonlin_coeffs={k: lam}, dispersion_kind=kind)

    @property
    def max_degree(self) -> int:
        return max(self.nonlin_coeffs)

    def self_coupling(self, c: complex) -> complex:
        """``sum_l lambda_l c^l``: coefficient of the self-interaction of
        mode n induced by a constant background ``c`` (mode-0 amplitude)."""
        return sum(lam * c**deg for deg, lam in self.nonlin_coeffs.items())

    def recentered(self, m0: complex) -> "EquationSpec":
        """The equation of ``w = u - m0`` in the frame that removes the
        self-coupling of the background ``m0``: coefficients
        ``lambda'_j = sum_{l>=j} lambda_l C(l, j) m0^{l-j}`` for j >= 1, so
        no degree-0 (transport) term survives."""
        m0 = complex(m0)
        new_coeffs = {}
        for j in range(1, self.max_degree + 1):
            lam_j = sum(lam * comb(deg, j) * m0 ** (deg - j)
                        for deg, lam in self.nonlin_coeffs.items()
                        if deg >= j)
            if lam_j != 0:
                new_coeffs[j] = lam_j
        if not new_coeffs:
            raise ValueError("no nonlinear term survives recentering a "
                             "linear equation")
        return EquationSpec(alpha=self.alpha, nonlin_coeffs=new_coeffs,
                            dispersion_kind=self.dispersion_kind)

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "dispersion_kind": self.dispersion_kind.value,
            "nonlin_coeffs": {
                str(deg): [lam.real, lam.imag]
                for deg, lam in sorted(self.nonlin_coeffs.items())
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EquationSpec":
        return cls(
            alpha=float(d["alpha"]),
            nonlin_coeffs={int(k): complex(v[0], v[1])
                           for k, v in d["nonlin_coeffs"].items()},
            dispersion_kind=DispersionKind(d.get("dispersion_kind", "schrodinger")),
        )


def _product(a: np.ndarray, b: np.ndarray, out=None, start: int = 0,
             live=None, scratch=None) -> np.ndarray:
    """``out[n - start] += sum_{m in live, m <= n} a[m] b[n-m]`` along axis
    0 by direct shift-and-add, in increasing m, for the targets ``n >=
    start`` that ``out`` holds.  By default ``out`` is a new zero array like
    ``a``, ``start`` 0 and ``live`` the rows of ``a`` nonzero in some
    column, so modes no pair of supported modes reaches stay exactly 0.
    Each term ``a[m] b[n-m]`` is formed in ``scratch`` when it is given, an
    array with at least ``out``'s rows and its trailing shape, and in a new
    array otherwise; the sums are the same."""
    out = np.zeros_like(a) if out is None else out
    if live is None:
        live = np.flatnonzero(np.any(a, axis=tuple(range(1, a.ndim)))).tolist()
    stop = start + out.shape[0]
    for m in live:
        first = max(start, m)
        if first < stop:
            term = None if scratch is None else scratch[:stop - first]
            out[first - start:] += np.multiply(a[m], b[first - m: stop - m],
                                               out=term)
    return out


def convolve(a, b) -> np.ndarray:
    """Coefficient product ``(a*b)(n) = sum_{m=0}^{n} a(m) b(n-m)``.

    Both inputs are arrays of one shape ``(M+1, ...)``: axis 0 holds the
    modes and the trailing axes are a batch, multiplied column by column.
    Entries ``n <= M`` of the result are exact because no discarded mode can
    reach them.
    """
    ca, cb = _as_coeffs(a), _as_coeffs(b)
    if ca.shape != cb.shape:
        raise TruncationMismatchError(
            f"coefficient arrays differ: truncations {ca.shape[0] - 1} vs "
            f"{cb.shape[0] - 1}, shapes {ca.shape} vs {cb.shape}")
    return _product(ca, cb)


def power(a, j: int, spare=None) -> np.ndarray:
    """j-fold coefficient product of an ``(M+1, ...)`` array, column by
    column; ``j = 0`` returns the identity delta_0 in every column and
    ``j = 1`` a copy of ``a``.

    ``spare`` is a list of work arrays shaped like ``a``.  The powers are
    made in arrays popped from it, those freed on the way are appended
    back, and its last array holds each product's terms; the result is one
    of its arrays, no longer in it.  Two suffice for ``j = 2`` and four for
    ``j >= 3``; when it runs short, or is not given, new arrays are made,
    with the same bits."""
    c = _as_coeffs(a)
    if j < 0:
        raise ValueError("power exponent must be >= 0")
    spare = [] if spare is None else spare

    def take():
        return spare.pop() if spare else np.empty_like(c)

    def product(x, y):
        out = take()
        out.fill(0.0)
        return _product(x, y, out, scratch=spare[-1] if spare else None)

    # binary powering from the lowest set bit: bit_length - 1 squarings and
    # popcount - 1 further products, each exact on the retained modes.  A
    # power made here becomes the result in place of a copy; ``a`` is copied
    base, out = c, None
    while j:
        if j & 1:
            if out is not None:
                prod = product(out, c)
                spare.append(out)
                out = prod
            elif c is base:
                out = take()
                out[...] = c
            else:
                out = c
        j >>= 1
        if j:
            square = product(c, c)
            if c is not base and c is not out:
                spare.append(c)
            c = square
    if out is None:
        out = take()
        out.fill(0.0)
        out[0] = 1.0
    elif c is not base and c is not out:
        spare.append(c)
    return out


def sobolev_norm(u, s: float) -> float:
    """``( sum <n>^{2s} |u(n)|^2 )^{1/2}`` with ``<n> = sqrt(1 + n^2)``.

    At ``s = 0`` this is the L^2 norm (Parseval).
    """
    c = _as_coeffs(u)
    if c.ndim != 1:
        raise ValueError(f"coefficient vector must be 1-D, got shape {c.shape}")
    n = np.arange(c.size, dtype=float)
    w = (1.0 + n * n) ** float(s)
    return float(np.sqrt(np.sum(w * (c.real**2 + c.imag**2))))


def derivative_coeffs(u) -> np.ndarray:
    """Coefficients of the spatial derivative: ``(u_x)(n) = i n u(n)``, for
    an ``(M+1, ...)`` array."""
    c = _as_coeffs(u)
    return 1j * _along_modes(np.arange(c.shape[0]), c) * c


def dispersion_mu(alpha: float, n, kind: DispersionKind = DispersionKind.SCHRODINGER):
    """``mu(n)`` for nonnegative integer frequencies ``n``.

    Integer ``alpha`` is evaluated in exact integer arithmetic before
    conversion, so SCHRODINGER and AIRY_TYPE agree bit for bit there.  A
    ``mu(n)`` past the largest float raises ValueError.
    """
    n_arr = np.atleast_1d(np.asarray(n))
    if np.any(n_arr < 0):
        raise ValueError("one-sided states have no negative frequencies")
    top = int(n_arr.max(initial=0))
    try:
        # a float power first: an overflow is refused before any exact
        # integer power is formed
        float(top) ** float(alpha)
    except OverflowError:
        raise ValueError(f"mu(n) of mode n = {top} overflows a float at "
                         f"alpha = {alpha!r}") from None
    if float(alpha).is_integer():
        a = int(alpha)
        if kind is DispersionKind.SCHRODINGER:
            vals = [float(abs(int(m)) ** a) for m in n_arr]
        else:
            vals = [float(int(m) * abs(int(m)) ** (a - 1)) for m in n_arr]
        out = np.array(vals)
    else:
        nf = n_arr.astype(float)
        if kind is DispersionKind.SCHRODINGER:
            out = np.abs(nf) ** float(alpha)
        else:
            out = nf * np.abs(nf) ** (float(alpha) - 1.0)
    return out if np.ndim(n) else float(out[0])


def dispersion_symbol(spec: EquationSpec, n):
    """``mu(n)`` of the equation's dispersion on nonnegative frequencies."""
    return dispersion_mu(spec.alpha, n, spec.dispersion_kind)

