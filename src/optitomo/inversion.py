"""Coefficient reconstruction by minimizing an energy-misfit functional.

For each measurement pair (g_k, f_k) the functional compares the Neumann
solution driven by g_k with the Dirichlet solution fitted to f_k in the
coefficient-weighted energy norm, plus a Tikhonov penalty:

    J(sigma, q) = sum_k int sigma |grad(u_gk - u_fk)|^2 + q (u_gk - u_fk)^2
                  + (rho/2) int (sigma^2 + q^2).

J vanishes exactly when both solutions coincide for every pair.  Its gradient
with respect to per-element coefficient values is analytic (no adjoint solves
beyond the 2K forward solves per evaluation).  Minimization runs a projected
L-BFGS: a limited-memory quasi-Newton step from the two-loop recursion over
the last ``LBFGS_MEMORY`` curvature pairs, projection onto the box bounds,
Armijo backtracking on the projected point, and a curvature-guarded pair
update.  The regularization weight can be chosen by a fixed-point iteration
that balances the data-fit term against the penalty, which needs no
noise-level knowledge.

In absorption-only mode the diffusion coefficient is held fixed and the
penalty reduces to (rho/2) int q^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import FieldError
from .field import NodalField, PiecewiseConstantField
from .fem import (
    assemble,
    element_gradients,
    element_l2_products,
    solve_dirichlet,
    solve_neumann,
)
from .mesh import TriMesh

Q_ONLY = "q_only"
JOINT = "joint"

# Curvature pairs kept by the limited-memory inverse Hessian.
LBFGS_MEMORY = 20


@dataclass(frozen=True)
class MeasurementSet:
    """Flux/trace pairs (g_k, f_k) on the inversion mesh."""

    mesh: TriMesh
    pairs: tuple

    def __post_init__(self):
        if len(self.pairs) < 1:
            raise FieldError("a measurement set needs at least one pair")
        for g, f in self.pairs:
            if g.mesh is not self.mesh or f.mesh is not self.mesh:
                raise FieldError("measurement traces live on a different mesh")

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass
class InversionConfig:
    """Settings for reconstruction.

    ``sigma0`` is the known diffusion in q-only mode and the initial guess in
    joint mode; ``q0`` is the initial absorption guess.  Bounds are inclusive
    boxes applied per element.  ``max_iter``, ``gradient_tolerance``,
    ``armijo`` and ``max_backtracks`` control the projected L-BFGS descent;
    ``beta_balance``, ``balance_max_outer`` and ``balance_rtol`` control the
    balancing fixed point for ``rho``.
    """

    mode: str
    sigma0: PiecewiseConstantField
    q0: PiecewiseConstantField
    q_bounds: tuple[float, float]
    sigma_bounds: tuple[float, float] | None = None
    rho: float = 0.0
    beta_balance: float = 1.5
    max_iter: int = 200
    gradient_tolerance: float = 1e-9
    armijo: float = 1e-4
    max_backtracks: int = 30
    balance_max_outer: int = 20
    balance_rtol: float = 1e-3

    def __post_init__(self):
        if self.mode not in (Q_ONLY, JOINT):
            raise FieldError(f"unknown inversion mode {self.mode!r}")
        lo, hi = self.q_bounds
        if not 0.0 < lo <= hi:
            raise FieldError("q bounds must be ordered and positive")
        if self.mode == JOINT:
            if self.sigma_bounds is None:
                raise FieldError("joint mode needs sigma bounds")
            lo, hi = self.sigma_bounds
            if not 0.0 < lo <= hi:
                raise FieldError("sigma bounds must be ordered and positive")
        if self.beta_balance <= 1.0:
            raise FieldError("beta_balance must exceed 1")


@dataclass
class OptimizationTrace:
    """Per-iteration log of a BFGS run."""

    rows: list = dc_field(default_factory=list)
    converged: bool = False
    message: str = ""

    def add(self, iteration, value, data_fit, penalty, grad_norm, step):
        self.rows.append(
            {
                "iteration": iteration,
                "J": value,
                "data_fit": data_fit,
                "penalty": penalty,
                "grad_norm": grad_norm,
                "step": step,
            }
        )


def _solutions(meas: MeasurementSet, sigma, q):
    """One assembly and the 2K solves shared by value and gradient."""
    sys = assemble(meas.mesh, sigma, q)
    out = []
    for g, f in meas.pairs:
        out.append((solve_neumann(sys, g), solve_dirichlet(sys, f)))
    return out


def _data_fit(meas, sigma, q, sols) -> float:
    mesh = meas.mesh
    total = 0.0
    for un, ud in sols:
        diff = NodalField(mesh, un.values - ud.values)
        grad = element_gradients(diff)
        total += float(np.sum(sigma.values * mesh.areas * np.sum(grad * grad, axis=1)))
        total += float(np.sum(q.values * element_l2_products(diff, diff)))
    return total


def _penalty_integral(mesh, sigma, q, mode) -> float:
    val = float(np.sum(mesh.areas * q.values ** 2))
    if mode == JOINT:
        val += float(np.sum(mesh.areas * sigma.values ** 2))
    return val


def kv_terms(
    meas: MeasurementSet,
    sigma: PiecewiseConstantField,
    q: PiecewiseConstantField,
    rho: float,
    mode: str = JOINT,
) -> tuple[float, float, float]:
    """Return (J, data_fit, penalty) of the energy-misfit functional."""
    sols = _solutions(meas, sigma, q)
    fit = _data_fit(meas, sigma, q, sols)
    pen = 0.5 * rho * _penalty_integral(meas.mesh, sigma, q, mode)
    return fit + pen, fit, pen


def kv_value(meas, sigma, q, rho, mode: str = JOINT) -> float:
    """Value of the energy-misfit functional."""
    return kv_terms(meas, sigma, q, rho, mode)[0]


def kv_gradient(
    meas: MeasurementSet,
    sigma: PiecewiseConstantField,
    q: PiecewiseConstantField,
    rho: float,
    mode: str = JOINT,
):
    """Analytic gradient with respect to per-element coefficient values.

    Returns (g_sigma, g_q) as fields; g_sigma is None in q-only mode.  The
    components pair with coefficient directions through the plain Euclidean
    dot product of element values.
    """
    sols = _solutions(meas, sigma, q)
    return _gradient_from_solutions(meas, sigma, q, rho, mode, sols)


def _gradient_from_solutions(meas, sigma, q, rho, mode, sols):
    mesh = meas.mesh
    gsig = np.zeros(mesh.n_elements)
    gq = np.zeros(mesh.n_elements)
    for un, ud in sols:
        gn = element_gradients(un)
        gd = element_gradients(ud)
        gsig += mesh.areas * (np.sum(gd * gd, axis=1) - np.sum(gn * gn, axis=1))
        gq += element_l2_products(ud, ud) - element_l2_products(un, un)
    gq += rho * mesh.areas * q.values
    if mode == Q_ONLY:
        return None, PiecewiseConstantField(mesh, gq)
    gsig += rho * mesh.areas * sigma.values
    return PiecewiseConstantField(mesh, gsig), PiecewiseConstantField(mesh, gq)


class _Objective:
    """Stacked-vector view of the functional for the optimizer."""

    def __init__(self, meas, config):
        self.meas = meas
        self.config = config
        self.mesh = config.q0.mesh
        n = self.mesh.n_elements
        if config.mode == JOINT:
            lo = np.concatenate(
                (np.full(n, config.sigma_bounds[0]), np.full(n, config.q_bounds[0]))
            )
            hi = np.concatenate(
                (np.full(n, config.sigma_bounds[1]), np.full(n, config.q_bounds[1]))
            )
            x0 = np.concatenate((config.sigma0.values, config.q0.values))
        else:
            lo = np.full(n, config.q_bounds[0])
            hi = np.full(n, config.q_bounds[1])
            x0 = config.q0.values.copy()
        self.lo, self.hi = lo, hi
        self.x0 = np.clip(x0, lo, hi)

    def split(self, x):
        n = self.mesh.n_elements
        if self.config.mode == JOINT:
            sigma = PiecewiseConstantField(self.mesh, x[:n])
            q = PiecewiseConstantField(self.mesh, x[n:])
        else:
            sigma = self.config.sigma0
            q = PiecewiseConstantField(self.mesh, x)
        return sigma, q

    def project(self, x):
        return np.clip(x, self.lo, self.hi)

    def value_and_gradient(self, x, rho):
        sigma, q = self.split(x)
        mode = self.config.mode
        if self.meas is None:
            pen = 0.5 * rho * _penalty_integral(self.mesh, sigma, q, mode)
            gq = rho * self.mesh.areas * q.values
            if mode == JOINT:
                gs = rho * self.mesh.areas * sigma.values
                return pen, 0.0, pen, np.concatenate((gs, gq))
            return pen, 0.0, pen, gq
        sols = _solutions(self.meas, sigma, q)
        fit = _data_fit(self.meas, sigma, q, sols)
        pen = 0.5 * rho * _penalty_integral(self.mesh, sigma, q, mode)
        gsig, gq = _gradient_from_solutions(self.meas, sigma, q, rho, mode, sols)
        if mode == JOINT:
            grad = np.concatenate((gsig.values, gq.values))
        else:
            grad = gq.values.copy()
        return fit + pen, fit, pen, grad


class _LimitedMemoryInverseHessian:
    """Two-loop recursion over the last ``LBFGS_MEMORY`` (s, y) pairs.

    The initial inverse Hessian is gamma * I with gamma = s.y / y.y of the
    newest pair (Nocedal & Wright, Numerical Optimization, section 7.2).
    """

    def __init__(self):
        self.reset()

    def reset(self):
        self._pairs: list[tuple[np.ndarray, np.ndarray, float]] = []
        self._gamma = 1.0

    def direction(self, grad: np.ndarray) -> np.ndarray:
        q = grad.copy()
        alphas = []
        for s, y, rho in reversed(self._pairs):
            a = rho * float(s @ q)
            alphas.append(a)
            q -= a * y
        q *= self._gamma
        for (s, y, rho), a in zip(self._pairs, reversed(alphas)):
            b = rho * float(y @ q)
            q += (a - b) * s
        return -q

    def update(self, s: np.ndarray, y: np.ndarray, sy: float) -> None:
        self._pairs.append((s.copy(), y.copy(), 1.0 / sy))
        if len(self._pairs) > LBFGS_MEMORY:
            self._pairs.pop(0)
        self._gamma = sy / float(y @ y)


def bfgs_minimize(
    meas: MeasurementSet | None,
    config: InversionConfig,
    rho: float | None = None,
    x_start: np.ndarray | None = None,
):
    """Projected L-BFGS descent on the energy-misfit functional.

    Returns (sigma_rec, q_rec, trace).  ``meas=None`` optimizes the bare
    penalty (useful as a convexity sanity check).  ``x_start`` overrides the
    configured initial guess (used by warm-started outer loops).
    """
    obj = _Objective(meas, config)
    rho = config.rho if rho is None else rho
    x = obj.project(x_start.copy()) if x_start is not None else obj.x0.copy()
    hessian = _LimitedMemoryInverseHessian()

    value, fit, pen, grad = obj.value_and_gradient(x, rho)
    trace = OptimizationTrace()
    pg = x - obj.project(x - grad)
    trace.add(0, value, fit, pen, float(np.linalg.norm(pg)), 0.0)
    updated = False

    def backtrack(direction):
        step = 1.0
        for _ in range(config.max_backtracks + 1):
            x_new = obj.project(x + step * direction)
            dx = x_new - x
            slope = float(grad @ dx)
            if slope < 0.0:
                v_new, fit_new, pen_new, grad_new = obj.value_and_gradient(x_new, rho)
                if v_new <= value + config.armijo * slope:
                    return x_new, v_new, fit_new, pen_new, grad_new, step
            step *= 0.5
        return None

    for it in range(1, config.max_iter + 1):
        pg = x - obj.project(x - grad)
        pg_norm = float(np.linalg.norm(pg))
        if pg_norm <= config.gradient_tolerance:
            trace.converged = True
            trace.message = f"projected gradient norm {pg_norm:.3e} below tolerance"
            break

        result = backtrack(hessian.direction(grad))
        if result is None and updated:
            # Stale curvature can stall the search; retry once from scratch.
            hessian.reset()
            updated = False
            result = backtrack(hessian.direction(grad))
        if result is None:
            trace.message = "line search failed; returning best iterate"
            break
        x_new, v_new, fit_new, pen_new, grad_new, step = result

        s = x_new - x
        y = grad_new - grad
        sy = float(s @ y)
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            hessian.update(s, y, sy)
            updated = True

        x, value, fit, pen, grad = x_new, v_new, fit_new, pen_new, grad_new
        pg = x - obj.project(x - grad)
        trace.add(it, value, fit, pen, float(np.linalg.norm(pg)), step)
    else:
        trace.message = "iteration budget exhausted"

    sigma_rec, q_rec = obj.split(x)
    return sigma_rec, q_rec, trace


def balancing_rho(meas: MeasurementSet, config: InversionConfig):
    """Fixed-point choice of the regularization weight.

    Iterates rho <- 2 (beta - 1) F(rho) / P(rho), where F is the data-fit
    term and P the penalty integral of the reconstruction at the current rho,
    warm-starting each reconstruction from the previous one.  Returns
    (rho_star, history); each history row carries the balance residual
    |(beta - 1) F - (rho/2) P| of the minimizer at its own rho.  Degenerates
    to rho = 0 (flagged in the history) for noise-free consistent data.
    """
    obj = _Objective(meas, config)
    beta = config.beta_balance
    sigma0, q0 = obj.split(obj.x0)
    _, fit0, _ = kv_terms(meas, sigma0, q0, 0.0, config.mode)
    pen0 = _penalty_integral(meas.mesh, sigma0, q0, config.mode)
    scale = abs(fit0) + abs(pen0)
    if fit0 <= 1e-14 * scale:
        return 0.0, [{"outer": 0, "rho": 0.0, "data_fit": fit0, "penalty_integral": pen0,
                      "residual": 0.0, "degenerate": True}]

    rho = 2.0 * (beta - 1.0) * fit0 / pen0
    history = []
    x_warm = obj.x0.copy()
    for outer in range(1, config.balance_max_outer + 1):
        sigma_rec, q_rec, trace = bfgs_minimize(meas, config, rho=rho, x_start=x_warm)
        if config.mode == JOINT:
            x_warm = np.concatenate((sigma_rec.values, q_rec.values))
        else:
            x_warm = q_rec.values.copy()
        fit = trace.rows[-1]["data_fit"]
        pen = _penalty_integral(meas.mesh, sigma_rec, q_rec, config.mode)
        residual = abs((beta - 1.0) * fit - 0.5 * rho * pen)
        history.append(
            {"outer": outer, "rho": rho, "data_fit": fit, "penalty_integral": pen,
             "residual": residual, "degenerate": False}
        )
        if fit <= 1e-14 * (abs(fit) + abs(pen)):
            return 0.0, history
        rho_next = 2.0 * (beta - 1.0) * fit / pen
        if abs(rho_next - rho) <= config.balance_rtol * rho:
            break
        rho = rho_next
    return history[-1]["rho"], history
