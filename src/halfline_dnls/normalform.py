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

from .quadrature import DEFAULT_POINTS, PanelGrid, RADIANS_PER_PANEL
from .spectral import EquationSpec, SpectralState, dispersion_mu, power
from .trajectory import Trajectory, sup_sobolev_diff

__all__ = [
    "NormalFormOperators",
    "PicardLog",
    "SmallnessReport",
    "ContractionThresholdError",
    "NonContractionError",
    "MaxIterationsError",
    "iterate_fixed_point",
    "picard_solve",
]


class ContractionThresholdError(ValueError):
    """Initial data too large for the certified contraction ball."""


class NonContractionError(RuntimeError):
    """Picard iterates stopped contracting."""


class MaxIterationsError(RuntimeError):
    """Iteration budget exhausted before reaching tolerance."""


def iterate_fixed_point(apply: Callable[[np.ndarray], np.ndarray],
                        x: np.ndarray, log: "PicardLog", tol: float,
                        max_iter: int) -> np.ndarray:
    """Iterate ``x <- apply(x)`` on dense node-value tensors shaped
    ``(modes, ...)`` until the sup-in-time H^1 increment is ``<= tol``.

    Records ``(iteration, increment, ratio)`` in ``log``; on convergence
    sets ``log.final_residual`` to the increment of one more application of
    ``apply`` and returns the last iterate.  Raises NonContractionError
    after two non-contracting steps in a row (unless within 10 tol) and
    MaxIterationsError when ``max_iter`` applications do not converge.
    The initial iterate is not kept once the first application is done.
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
            log.final_residual = sup_sobolev_diff(apply(x), x)
            return x
        if ratio is not None and ratio >= 1.0:
            bad_ratios += 1
            if bad_ratios >= 2 and diff > 10 * tol:
                raise NonContractionError(
                    f"iterates stopped contracting (ratio {ratio:.3f} at "
                    f"iteration {it}); smallness lhs {log.smallness.lhs:.4g}, "
                    f"rhs {log.smallness.rhs:.4g}")
        else:
            bad_ratios = 0
        prev_diff = diff
    raise MaxIterationsError(
        f"no convergence after {max_iter} iterations; last increment "
        f"{diff:.3e}")


def _ordered_compositions(n: int, parts: int):
    if parts == 1:
        yield (n,)
        return
    for first in range(1, n - parts + 2):
        for rest in _ordered_compositions(n - first, parts - 1):
            yield (first,) + rest


@dataclass(frozen=True, eq=False)
class _Table:
    parts: np.ndarray          # (R, deg+1) mode indices, ordered compositions
    target: np.ndarray         # (R,)
    phi: np.ndarray            # (R,) resonance phases, all nonzero
    inv_phi: np.ndarray
    seg_starts: np.ndarray     # row ranges per unique target
    unique_targets: np.ndarray


def _build_table(M: int, deg: int, mu: np.ndarray) -> _Table:
    parts_list, targets = [], []
    for n in range(deg + 1, M + 1):
        for tup in _ordered_compositions(n, deg + 1):
            parts_list.append(tup)
            targets.append(n)
    if not parts_list:
        empty = np.zeros((0, deg + 1), dtype=int)
        z = np.zeros(0)
        return _Table(empty, z.astype(int), z, z, z.astype(int), z.astype(int))
    parts = np.array(parts_list, dtype=int)
    target = np.array(targets, dtype=int)
    phi = -mu[target] + np.sum(mu[parts], axis=1)
    if np.any(phi == 0):
        raise ValueError("vanishing resonance phase; normal form needs alpha > 1")
    starts = np.flatnonzero(np.r_[True, target[1:] != target[:-1]])
    return _Table(parts=parts, target=target, phi=phi, inv_phi=1.0 / phi,
                  seg_starts=starts, unique_targets=target[starts])


@dataclass(frozen=True)
class SmallnessReport:
    """Result of the a-priori contraction-ball check.

    For the normal form the bound constants are certified at the working
    truncation from the cached phase table (kernel maxima) and Young's
    convolution inequality; the check mirrors the continuity argument
    ``|phi| + N-bound(2|phi|) + N-bound(|phi|) + T * B-bound(2|phi|) < 2|phi|``.
    The gauge solver reports ``lhs = |phi|_H1 + |psi|_H1`` against
    ``rhs = smallness_threshold`` and has no bound constants.
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
    """Cached phase tables and the reduced operators at one truncation.

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
        self.tables = {deg: _build_table(truncation, deg, self.mu)
                       for deg in spec.nonlin_coeffs}

    # -- batched kernels on u-values (columns = times) ----------------------

    def _scatter(self, tab: _Table, contrib: np.ndarray, out: np.ndarray):
        if tab.parts.shape[0] == 0:
            return
        sums = np.add.reduceat(contrib, tab.seg_starts, axis=0)
        out[tab.unique_targets] += sums

    def _boundary_from_u(self, U: np.ndarray) -> np.ndarray:
        """N without the outer e^{-it mu(n)} factor; U holds e^{it mu} v."""
        out = np.zeros_like(U)
        for deg, lam in self.spec.nonlin_coeffs.items():
            tab = self.tables[deg]
            if tab.parts.shape[0] == 0:
                continue
            prod = np.prod(U[tab.parts], axis=1)
            acc = np.zeros_like(U)
            self._scatter(tab, tab.inv_phi[:, None] * prod, acc)
            out += lam / (deg + 1) * self.n_vec[:, None] * acc
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
            tab = self.tables[deg]
            if tab.parts.shape[0] == 0:
                continue
            first = np.prod(U[tab.parts[:, :-1]], axis=1)
            contrib = tab.inv_phi[:, None] * first * vel[tab.parts[:, -1]]
            acc = np.zeros_like(U)
            self._scatter(tab, contrib, acc)
            out -= lam * self.n_vec[:, None] * acc
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
        sch = grid.scheme
        times = grid.node_times()
        widths = grid.widths()
        n_phi0 = self.boundary_term(phi, 0.0)
        out = np.empty_like(v_vals)
        carry = np.zeros(self.truncation + 1, dtype=complex)
        for p in range(grid.n_panels):
            E = np.exp(1j * np.outer(self.mu, times[p]))
            U = v_vals[:, p, :] * E
            Ec = np.conj(E)
            n_vals = self._boundary_from_u(U) * Ec
            vel = self._velocity_from_u(U)
            b_vals = self._bulk_from_u(U, vel) * Ec
            J = 0.5 * widths[p] * (b_vals @ sch.antideriv_nodes.T)
            out[:, p, :] = (phi[:, None] + n_vals - n_phi0[:, None]
                            + carry[:, None] + J)
            carry = carry + 0.5 * widths[p] * (b_vals @ sch.antideriv_end)
        return out

    def integral_map(self, v_traj: Trajectory, phi: SpectralState) -> Trajectory:
        """One application of the fixed-point map to a trajectory of v."""
        dense = np.zeros((self.truncation + 1, v_traj.n_panels, v_traj.grid.q),
                         dtype=complex)
        if v_traj.modes.size:
            dense[v_traj.modes] = v_traj.values
        new = self._apply_map_tensor(dense, v_traj.grid,
                                     np.asarray(phi.coeffs, dtype=complex))
        return Trajectory(spec=v_traj.spec, grid=v_traj.grid,
                          modes=np.arange(self.truncation + 1), values=new,
                          truncation=self.truncation,
                          quadrature_tolerance=v_traj.quadrature_tolerance,
                          initial_state=phi, variable="v")

    # -- certified constants ----------------------------------------------------

    def young_constants(self) -> tuple:
        """Upper-bound constants for ``|N(v)| <= C_N |v|^{deg+1}`` and the
        bulk kernel, in H^1, certified at this truncation."""
        n = self.n_vec
        jap = np.sqrt(1.0 + n**2)
        ell1 = float(np.sqrt(np.sum(1.0 / (1.0 + n[1:] ** 2))))
        c_boundary, kappa_bulk = {}, {}
        for deg, lam in self.spec.nonlin_coeffs.items():
            tab = self.tables[deg]
            if tab.parts.shape[0] == 0:
                c_boundary[deg] = 0.0
                kappa_bulk[deg] = 0.0
                continue
            maxpart = np.max(tab.parts, axis=1)
            rho = np.max(tab.target * jap[tab.target]
                         / ((deg + 1) * np.abs(tab.phi) * jap[maxpart]))
            kappa = np.max(tab.target * jap[tab.target] / np.abs(tab.phi))
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
    application after convergence, not the last recorded increment.
    """

    smallness: SmallnessReport
    iterations: list = field(default_factory=list)   # (iter, sup-H1 diff, ratio)
    converged: bool = False
    final_residual: float = float("nan")

    @property
    def ratios(self) -> list:
        return [r for _, _, r in self.iterations if r is not None]

    def write_csv(self, fh, manifest_lines=()):
        for line in manifest_lines:
            fh.write(f"# {line}\n")
        fh.write("iteration,sup_h1_difference,ratio\n")
        for i, d, r in self.iterations:
            fh.write(f"{i},{d!r},{'' if r is None else repr(r)}\n")


def picard_solve(phi: SpectralState, spec: EquationSpec, T: float,
                 tol: float = 1e-10, max_iter: int = 40,
                 allow_unsafe: bool = False, q: int = DEFAULT_POINTS,
                 radians_per_panel: float = RADIANS_PER_PANEL
                 ) -> tuple:
    """Iterate the reduced map from ``v = phi`` until the sup-in-time H^1
    increment drops below ``tol``.

    Returns ``(trajectory of v, PicardLog)``.  The contraction is certified
    only for ``alpha >= 3`` and data inside the smallness ball; outside that
    regime pass ``allow_unsafe=True`` to iterate anyway (no guarantee).
    """
    if T <= 0:
        raise ValueError("T must be positive")
    M = phi.truncation
    if abs(phi.coeffs[0]) != 0.0:
        raise ValueError("normal-form solver needs mean-zero data (mode 0 = 0)")
    if spec.alpha < 3 and not allow_unsafe:
        raise ValueError(
            f"alpha={spec.alpha} is below the certified normal-form range "
            "(alpha >= 3); pass allow_unsafe=True to iterate anyway")
    ops = NormalFormOperators(spec, M)
    log = PicardLog(smallness=ops.smallness_report(phi, T))
    if not log.smallness.accepted and not allow_unsafe:
        raise ContractionThresholdError(
            f"|phi|_H1 = {log.smallness.phi_h1:.4g} fails the contraction "
            f"ball check (lhs {log.smallness.lhs:.4g} >= rhs "
            f"{log.smallness.rhs:.4g}); pass allow_unsafe=True to override")

    freq = 2.0 * float(np.max(ops.mu)) + 1.0
    grid = PanelGrid.for_frequency(T, freq, q=q,
                                   radians_per_panel=radians_per_panel)
    phi_c = np.asarray(phi.coeffs, dtype=complex)
    # a copy, not a broadcast view of phi: with the view, the heap left by
    # one solve raised the peak RSS of later solves in the same process (by
    # up to ~4 MB on the benchmark's verify workload)
    v_vals = iterate_fixed_point(
        lambda v: ops._apply_map_tensor(v, grid, phi_c),
        np.broadcast_to(phi_c[:, None, None],
                        (M + 1, grid.n_panels, grid.q)).copy(),
        log, tol, max_iter)
    traj = Trajectory(spec=spec, grid=grid, modes=np.arange(M + 1),
                      values=v_vals, truncation=M, quadrature_tolerance=tol,
                      initial_state=phi, variable="v")
    return traj, log
