"""Normal-form reduced integral equation and its Picard solver.

In the interaction picture ``v(t) = e^{-it mu(D)} u(t)`` a mean-zero
one-sided solution of the pure-power (or polynomial) equation satisfies, per
mode,

    d/dt v_n = sum_l lambda_l (i n / (l+1)) *
               sum_{n_1+...+n_{l+1} = n, n_j >= 1} e^{it Phi} prod v_{n_j}.

Since the resonance phase Phi never vanishes (alpha > 1), integrating by
parts in time against ``e^{it Phi}`` trades the derivative loss for a 1/Phi
gain, leaving a boundary term N(v) and a higher-degree bulk term B(v); the
solution solves the fixed-point equation

    v(t) = phi + N(v)(t) - N(phi)(0) + int_0^t B(v) dt',

which is a contraction for small data when alpha >= 3.  Iterating the map
from ``v = phi`` gives an independent solution pipeline; its agreement with
the cascade solver is the package's numerical witness of unconditional
uniqueness.

Internally all tensor evaluations factor ``e^{it Phi} prod v_{n_j}`` as
``e^{-it mu(n)} prod u_{n_j}`` with ``u = e^{it mu} v``, which avoids per-
decomposition exponentials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import quadrature
from .quadrature import (BLOCK_PANELS, PanelGrid, QuadratureError, ladder,
                         require_positive, solve_on_ladder, tail_ratio)
from .spectral import (EquationSpec, SpectralState, _along_modes,
                       dispersion_mu, power)
from .trajectory import Trajectory, sup_sobolev_diff

__all__ = [
    "NormalFormOperators",
    "PicardLog",
    "SmallnessReport",
    "ContractionThresholdError",
    "NonContractionError",
    "MaxIterationsError",
    "iterate_fixed_point",
    "picard_on_ladder",
    "picard_solve",
]


class ContractionThresholdError(ValueError):
    """Initial data too large for the certified contraction ball."""


class _IterationFailure(RuntimeError):
    """A fixed-point iteration that gave up; ``log`` is its PicardLog, with
    the history up to the failure."""

    def __init__(self, message, log=None):
        super().__init__(message)
        self.log = log


class NonContractionError(_IterationFailure):
    """Picard iterates stopped contracting."""


class MaxIterationsError(_IterationFailure):
    """Iteration budget exhausted before reaching tolerance."""


def iterate_fixed_point(apply: Callable[[np.ndarray], np.ndarray],
                        x: np.ndarray, log: "PicardLog", tol: float,
                        max_iter: int) -> np.ndarray:
    """Iterate ``x <- apply(x)`` on dense node-value tensors shaped
    ``(modes, ...)`` until the sup-in-time H^1 increment is ``<= tol``.

    Records ``(iteration, increment, ratio)`` in ``log``; on convergence
    makes the last iterate read-only, keeps it and ``apply`` in ``log``,
    and returns it.  ``log.final_residual``, the increment of one more
    application of ``apply``, is computed from them when first read, so a
    solve whose residual nobody reads costs one application less.  Raises
    NonContractionError after two non-contracting steps in a row (unless
    within 10 tol) and MaxIterationsError when ``max_iter`` applications
    do not converge; either carries ``log`` as its ``log``.  The initial
    iterate is not kept once the first application is done.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    prev_diff = None
    bad_ratios = 0
    for it in range(1, max_iter + 1):
        new = apply(x)
        diff = sup_sobolev_diff(new, x)
        ratio = None if prev_diff in (None, 0.0) else diff / prev_diff
        log.iterations.append((it, diff, ratio))
        x = new
        if diff <= tol:
            log.converged = True
            # read-only, so the residual read later is that of this iterate
            x.flags.writeable = False
            log._residual = (apply, x)
            return x
        if ratio is not None and ratio >= 1.0:
            bad_ratios += 1
            if bad_ratios >= 2 and diff > 10 * tol:
                raise NonContractionError(
                    f"iterates stopped contracting (ratio {ratio:.3f} at "
                    f"iteration {it}); smallness lhs {log.smallness.lhs:.4g}, "
                    f"rhs {log.smallness.rhs:.4g}", log=log)
        else:
            bad_ratios = 0
        prev_diff = diff
    raise MaxIterationsError(
        f"no convergence after {max_iter} iterations; last increment "
        f"{diff:.3e}", log=log)


def _ordered_compositions(n: int, parts: int):
    if parts == 1:
        yield (n,)
        return
    for first in range(1, n - parts + 2):
        for rest in _ordered_compositions(n - first, parts - 1):
            yield (first,) + rest


def _phases(mu: np.ndarray, target: np.ndarray, parts: np.ndarray
            ) -> np.ndarray:
    """Resonance phases ``-mu(n) + sum_j mu(n_j)`` of the compositions
    ``n = n_1 + ... + n_{deg+1}`` given as rows of ``parts``."""
    return -mu[target] + np.sum(mu[parts], axis=1)


def _weight_tensor(M: int, deg: int, mu: np.ndarray) -> np.ndarray:
    """``W[n, n_1, ..., n_deg] = 1/Phi`` for every ordered composition
    ``n = n_1 + ... + n_deg + n_{deg+1}`` into positive parts, and 0 on
    every other entry (a part 0, or ``n_{deg+1} <= 0``): ``(M+1)^(deg+1)``
    entries."""
    W = np.zeros((M + 1,) * (deg + 1))
    rows = [(n,) + tup for n in range(deg + 1, M + 1)
            for tup in _ordered_compositions(n, deg + 1)]
    if rows:
        comps = np.array(rows, dtype=int)
        phi = _phases(mu, comps[:, 0], comps[:, 1:])
        if np.any(phi == 0):
            raise ValueError("vanishing resonance phase; normal form needs "
                             "alpha > 1")
        W[tuple(comps[:, :-1].T)] = 1.0 / phi
    return W


def _weighted_contract(W: np.ndarray, U: np.ndarray, last: np.ndarray
                       ) -> np.ndarray:
    """``out[n] = sum W[n, n_1..n_d] U[n_1] ... U[n_d] last[n - n_1 - ...
    - n_d]`` over ``n_1..n_d``, with ``d = W.ndim - 1`` and ``L =
    U.shape[0]`` target modes; degree 0 is ``W[n] last[n]``.  The first
    part is an outer shift-and-add whose inner sum, ``W[a + m, a, ...]``
    over the ``L - a`` targets m, is a contraction of degree ``d - 1``.  It
    runs over the live parts a only: rows of U that are nonzero and columns
    ``W[:, a]`` that are, so modes no composition of supported modes
    reaches stay exactly 0."""
    if W.ndim == 1:
        return _along_modes(W, last) * last
    L = U.shape[0]
    live = (np.any(U, axis=tuple(range(1, U.ndim)))
            & np.any(W[:, :L], axis=(0,) + tuple(range(2, W.ndim))))
    out = np.zeros_like(U)
    for a in np.flatnonzero(live).tolist():
        out[a:] += U[a] * _weighted_contract(W[a:, a], U[:L - a],
                                             last[:L - a])
    return out


@dataclass(frozen=True)
class SmallnessReport:
    """Result of the a-priori contraction-ball check.

    For the normal form the bound constants are certified at the working
    truncation from the cached weight tensors (kernel maxima) and Young's
    convolution inequality; the check mirrors the continuity argument
    ``|phi| + N-bound(2|phi|) + N-bound(|phi|) + T * B-bound(2|phi|) < 2|phi|``.
    The gauge solver reports ``lhs = |phi|_H1 + |psi|_H1`` against
    ``rhs = gauge.SMALLNESS_THRESHOLD`` and has no bound constants.
    """

    accepted: bool
    phi_h1: float
    lhs: float
    rhs: float
    boundary_constants: dict
    bulk_kernel_constants: dict
    horizon: float

    def to_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "phi_h1": self.phi_h1,
            "ball_lhs": self.lhs,
            "ball_rhs": self.rhs,
            "boundary_constants": {str(k): v for k, v in
                                   self.boundary_constants.items()},
            "bulk_kernel_constants": {str(k): v for k, v in
                                      self.bulk_kernel_constants.items()},
            "horizon": self.horizon,
        }


class NormalFormOperators:
    """Cached ``1/Phi`` weight tensors and the reduced operators at one
    truncation.

    Requires mean-zero data and nonlinearity degrees >= 1; alpha > 1 so that
    every cached phase is nonzero.
    """

    def __init__(self, spec: EquationSpec, truncation: int):
        if truncation < 1:
            raise ValueError("truncation must be >= 1")
        if spec.alpha <= 1:
            raise ValueError("normal form requires alpha > 1 (nonzero phases)")
        if min(spec.nonlin_coeffs) < 1:
            raise ValueError("degree-0 transport has no normal form; "
                             "recenter the equation first")
        self.spec = spec
        self.truncation = truncation
        self.mu = dispersion_mu(spec.alpha, np.arange(truncation + 1),
                                spec.dispersion_kind)
        self.n_vec = np.arange(truncation + 1, dtype=float)
        self.weights = {deg: _weight_tensor(truncation, deg, self.mu)
                        for deg in spec.nonlin_coeffs}

    # -- batched kernels on u-values (columns = times) ----------------------

    def _boundary_from_u(self, U: np.ndarray) -> np.ndarray:
        """N without the outer e^{-it mu(n)} factor; U holds e^{it mu} v."""
        out = np.zeros_like(U)
        for deg, lam in self.spec.nonlin_coeffs.items():
            out += (lam / (deg + 1) * self.n_vec[:, None]
                    * _weighted_contract(self.weights[deg], U, U))
        return out

    def _velocity_from_u(self, U: np.ndarray) -> np.ndarray:
        """i n e^{it mu(n)} d/dt v_n expressed through convolution powers of
        the positive part of u; this is what the time derivative inserts
        into the bulk term.  Columns of U are times."""
        pos = np.array(U)
        pos[0] = 0.0
        out = sum(lam / (deg + 1) * power(pos, deg + 1)
                  for deg, lam in self.spec.nonlin_coeffs.items())
        return 1j * self.n_vec[:, None] * out

    def _bulk_from_u(self, U: np.ndarray, vel: np.ndarray) -> np.ndarray:
        """B without the outer e^{-it mu(n)} factor."""
        out = np.zeros_like(U)
        for deg, lam in self.spec.nonlin_coeffs.items():
            out -= (lam * self.n_vec[:, None]
                    * _weighted_contract(self.weights[deg], U, vel))
        return out

    def _u_from_v(self, v_cols: np.ndarray, t: np.ndarray) -> np.ndarray:
        return v_cols * np.exp(1j * np.outer(self.mu, t))

    # -- public spot operators ------------------------------------------------

    def _as_column(self, v) -> np.ndarray:
        c = np.asarray(getattr(v, "coeffs", v), dtype=complex)
        if c.size != self.truncation + 1:
            raise ValueError("state truncation does not match the operator table")
        if c[0] != 0:
            raise ValueError("normal-form operators need mean-zero input")
        return c[:, None]

    def boundary_term(self, v, t: float) -> np.ndarray:
        """Mode values of the integrated-by-parts boundary operator N(v)(t)."""
        t_arr = np.array([float(t)])
        U = self._u_from_v(self._as_column(v), t_arr)
        N = self._boundary_from_u(U)
        return (np.exp(-1j * self.mu * float(t)) * N[:, 0])

    def bulk_term(self, v, t: float) -> np.ndarray:
        """Mode values of the higher-degree bulk operator B(v)(t)."""
        t_arr = np.array([float(t)])
        U = self._u_from_v(self._as_column(v), t_arr)
        vel = self._velocity_from_u(U)
        B = self._bulk_from_u(U, vel)
        return (np.exp(-1j * self.mu * float(t)) * B[:, 0])

    # -- the fixed-point map ---------------------------------------------------

    def _apply_map_tensor(self, v_vals: np.ndarray, grid: PanelGrid,
                          phi: np.ndarray) -> np.ndarray:
        M1, P, q = v_vals.shape
        sch = grid.scheme
        half_widths = 0.5 * grid.widths()
        out = np.empty_like(v_vals)
        ends = np.empty((M1, P), dtype=complex)
        for start in range(0, P, BLOCK_PANELS):
            blk = slice(start, min(start + BLOCK_PANELS, P))
            nb = blk.stop - blk.start
            # the block's (nb, q) node values as nb*q columns of one batch
            E = grid.node_phases(1j * self.mu, blk).reshape(M1, nb * q)
            U = v_vals[:, blk, :].reshape(M1, nb * q) * E
            # in place: E is not needed past U, and the block's temporaries
            # set the solver's peak memory
            Ec = np.conj(E, out=E)
            n_vals = self._boundary_from_u(U)
            n_vals *= Ec
            vel = self._velocity_from_u(U)
            b_vals = self._bulk_from_u(U, vel)
            b_vals *= Ec
            b_vals = b_vals.reshape(M1, nb, q)
            hw = half_widths[blk]
            out[:, blk, :] = (n_vals.reshape(M1, nb, q)
                              + hw[:, None] * (b_vals @ sch.antideriv_nodes.T))
            ends[:, blk] = hw * (b_vals @ sch.antideriv_end)
        # bulk integral up to the left end of each panel: exclusive running
        # sum of the panels' end integrals
        carry = np.zeros_like(ends)
        np.cumsum(ends[:, :-1], axis=1, out=carry[:, 1:])
        out += (phi - self.boundary_term(phi, 0.0))[:, None, None]
        out += carry[:, :, None]
        return out

    # -- certified constants ----------------------------------------------------

    def young_constants(self) -> tuple:
        """Upper-bound constants for ``|N(v)| <= C_N |v|^{deg+1}`` and the
        bulk kernel, in H^1, certified at this truncation."""
        n = self.n_vec
        jap = np.sqrt(1.0 + n**2)
        ell1 = float(np.sqrt(np.sum(1.0 / (1.0 + n[1:] ** 2))))
        c_boundary, kappa_bulk = {}, {}
        for deg, lam in self.spec.nonlin_coeffs.items():
            nz = np.nonzero(self.weights[deg])
            if nz[0].size == 0:
                c_boundary[deg] = 0.0
                kappa_bulk[deg] = 0.0
                continue
            # the compositions are the support of W: n, n_1..n_deg and the
            # last part n - n_1 - ... - n_deg
            target = nz[0]
            parts = np.column_stack(nz[1:] + (target - sum(nz[1:]),))
            phi = np.abs(_phases(self.mu, target, parts))
            maxpart = np.max(parts, axis=1)
            rho = np.max(target * jap[target]
                         / ((deg + 1) * phi * jap[maxpart]))
            kappa = np.max(target * jap[target] / phi)
            c_boundary[deg] = float(abs(lam) * rho * (deg + 1) * ell1**deg)
            kappa_bulk[deg] = float(kappa)
        return c_boundary, kappa_bulk, ell1

    def smallness_report(self, phi: SpectralState, T: float) -> SmallnessReport:
        c_boundary, kappa_bulk, ell1 = self.young_constants()
        coeffs = self.spec.nonlin_coeffs
        jap = np.sqrt(1.0 + self.n_vec**2)
        r0 = float(np.sqrt(np.sum((jap * np.abs(phi.coeffs)) ** 2)))

        def boundary_bound(r):
            return sum(c * r ** (deg + 1) for deg, c in c_boundary.items())

        def bulk_bound(r):
            inner = sum(abs(lam) * (deg + 1) * (ell1 * r) ** deg
                        for deg, lam in coeffs.items())
            outer = sum(abs(coeffs[j]) * kappa_bulk[j] * (ell1 * r) ** j
                        for j in coeffs)
            return outer * inner * r

        lhs = (r0 + boundary_bound(2 * r0) + boundary_bound(r0)
               + T * bulk_bound(2 * r0))
        # zero data is trivially inside every ball
        return SmallnessReport(accepted=bool(r0 == 0.0 or lhs < 2 * r0),
                               phi_h1=r0, lhs=float(lhs), rhs=float(2 * r0),
                               boundary_constants=c_boundary,
                               bulk_kernel_constants=kappa_bulk, horizon=T)


@dataclass
class PicardLog:
    """Convergence history of a fixed-point iteration (normal form or gauge).

    ``final_residual`` is the sup-in-time H^1 increment of one more map
    application after convergence, not the last recorded increment; it is
    computed when first read, from the map and the converged iterate that
    ``iterate_fixed_point`` keeps, and is NaN for a log that did not
    converge.  ``tail`` is the worst Chebyshev tail of the returned
    iterate, measured by ``picard_on_ladder``; ``grid_attempts`` holds
    ``(n_panels, tail)`` for every grid the solve tried, coarsest first,
    the failed ones included.
    """

    smallness: SmallnessReport
    iterations: list = field(default_factory=list)   # (iter, sup-H1 diff, ratio)
    converged: bool = False
    tail: float = float("nan")
    grid_attempts: list = field(default_factory=list)
    # (map, converged iterate) until final_residual is read, then its value
    _residual: object = field(default=None, repr=False, compare=False)

    @property
    def final_residual(self) -> float:
        if isinstance(self._residual, tuple):
            apply, x = self._residual
            self._residual = sup_sobolev_diff(apply(x), x)
        return float("nan") if self._residual is None else self._residual

    @property
    def ratios(self) -> list:
        return [r for _, _, r in self.iterations if r is not None]

    def write_csv(self, fh):
        """Rows (iteration, sup_h1_difference, ratio) of the history."""
        fh.write("iteration,sup_h1_difference,ratio\n")
        for i, d, r in self.iterations:
            fh.write(f"{i},{d!r},{'' if r is None else repr(r)}\n")


def picard_on_ladder(spec: EquationSpec, initial: dict, horizon: float,
                     max_frequency: float, smallness: SmallnessReport,
                     tol: float, max_iter: int,
                     setup: Callable[[PanelGrid], tuple],
                     allow_unsafe: bool = False) -> tuple:
    """Iterate a Picard map to convergence on the coarsest grid of
    ``quadrature.ladder(horizon, max_frequency, quadrature.PICARD_DEPTH)``
    that resolves its iterate, through ``quadrature.solve_on_ladder``.

    ``initial`` maps each component's name to its data, all of one
    truncation M; the iterates stack the components on axis 1, shape
    (M+1, components, panels, q), so one sup-in-time increment covers all
    of them.  ``setup(grid)`` returns the map on ``grid`` and its first
    iterate.  Data that ``smallness`` does not accept is refused with
    ContractionThresholdError before any rung, unless ``allow_unsafe``.

    On each rung the map is iterated by ``iterate_fixed_point``, with a
    ``PicardLog`` of ``smallness`` whose ``grid_attempts`` is one list that
    every rung's log shares.  Modes >= 1 of each component are measured
    against each other on each panel (``quadrature.tail_ratio``); mode 0 is
    constant for the mean-zero data both Picard solvers take.  The rung
    records its worst tail in ``log.tail`` and appends ``(grid.n_panels,
    tail)`` to ``log.grid_attempts``.  A tail above ``tol`` raises
    QuadratureError naming its mode and component, which moves the climb
    to the next rung, except on the top rung (the grid sized for
    ``max_frequency``), where it propagates.  Any other error, such as
    MaxIterationsError or NonContractionError, propagates from the rung
    where it occurs.  Returns one Trajectory of ``spec`` per component of
    ``initial``, in its order and named after it, then the log.
    """
    if not (smallness.accepted or allow_unsafe):
        raise ContractionThresholdError(
            f"|phi|_H1 = {smallness.phi_h1:.4g}: the data fails the "
            f"contraction ball check (smallness lhs {smallness.lhs:.4g} is "
            f"not below rhs {smallness.rhs:.4g})")
    names = list(initial)
    attempts = []

    def solve(grid):
        log = PicardLog(smallness=smallness, grid_attempts=attempts)
        # popped into the call, not held by a name or a star call's argument
        # tuple: where the callee takes over its arguments (CPython 3.11+),
        # the first iterate is freed once ``iterate_fixed_point`` replaces
        # it, which kept ~0.2 MB off the peak RSS of the benchmark's verify
        # workload
        apply, *first = setup(grid)
        x = iterate_fixed_point(apply, first.pop(), log, tol, max_iter)
        tails = [tail_ratio(x[1:, c], grid.scheme) for c in range(len(names))]
        c = max(range(len(names)), key=lambda c: tails[c].max())
        mode = int(np.argmax(tails[c])) + 1
        log.tail = float(tails[c][mode - 1])
        attempts.append((grid.n_panels, log.tail))
        if log.tail > tol:
            raise QuadratureError(
                f"Picard iterate not resolved on {grid.n_panels} panels: "
                f"Chebyshev tail {log.tail:.3e} > tol {tol:.3e} at mode "
                f"{mode} of {names[c]}", worst_mode=mode, tail=log.tail)
        modes = np.arange(x.shape[0])
        return tuple(Trajectory(spec=spec, grid=grid, modes=modes,
                                values=x[:, c], quadrature_tolerance=tol,
                                initial_state=initial[name], variable=name)
                     for c, name in enumerate(names)) + (log,)

    _, solved = solve_on_ladder(
        ladder(horizon, max_frequency, quadrature.PICARD_DEPTH), solve,
        attempts)
    return solved


def picard_solve(phi: SpectralState, spec: EquationSpec, T: float,
                 tol: float = 1e-10, max_iter: int = 40,
                 allow_unsafe: bool = False) -> tuple:
    """Iterate the reduced map from ``v = phi`` until the sup-in-time H^1
    increment drops below ``tol``, on the grid that ``picard_on_ladder``
    accepts; its ladder is sized for the fastest frequency ``2 max(mu) +
    1``.

    Returns ``(trajectory of v, PicardLog)``.  The contraction is certified
    only for ``alpha >= 3`` and data inside the smallness ball;
    ``allow_unsafe=True`` iterates anyway.
    """
    require_positive(T=T, tol=tol)
    M = phi.truncation
    if abs(phi.coeffs[0]) != 0.0:
        raise ValueError("normal-form solver needs mean-zero data (mode 0 = 0)")
    if spec.alpha < 3 and not allow_unsafe:
        raise ValueError(
            f"alpha = {spec.alpha}: the normal-form contraction is "
            "certified only for alpha >= 3")
    ops = NormalFormOperators(spec, M)
    phi_c = np.asarray(phi.coeffs, dtype=complex)

    # the iterates are a stack of one component, v
    def setup(grid):
        # a copy, not a broadcast view of phi: with the view, the heap left
        # by one solve raised the peak RSS of later solves in the same
        # process (by up to ~4 MB on the benchmark's verify workload)
        return (lambda v: ops._apply_map_tensor(v[:, 0], grid, phi_c)[:, None],
                np.broadcast_to(phi_c[:, None, None, None],
                                (M + 1, 1, grid.n_panels, grid.q)).copy())

    return picard_on_ladder(
        spec, {"v": phi}, T, 2.0 * float(np.max(ops.mu)) + 1.0,
        ops.smallness_report(phi, T), tol, max_iter, setup, allow_unsafe)
