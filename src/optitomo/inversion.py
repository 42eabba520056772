"""Coefficient reconstruction by minimizing an energy-misfit functional.

For each measurement pair (g_k, f_k) the functional compares the Neumann
solution driven by g_k with the Dirichlet solution fitted to f_k in the
coefficient-weighted energy norm, plus a Tikhonov penalty:

    J(sigma, q) = sum_k int sigma |grad(u_gk - u_fk)|^2 + q (u_gk - u_fk)^2
                  + (rho/2) int (sigma^2 + q^2).

J vanishes exactly when both solutions coincide for every pair.  One
evaluation is one batched pass: a single assembly of A(sigma, q), one
K-column Neumann solve and one K-column Dirichlet solve.  Because the assembly
integrates piecewise-constant coefficients in closed form, the data fit is
exactly the energy sum_k w_k^T A w_k of the columns of W = U_N - U_D, taken
as one sparse matrix product.  The gradient with respect to per-element
coefficient values is analytic (no adjoint solves beyond the 2K forward
solves) and is formed for all 2K solution columns at once.  Minimization runs
a projected L-BFGS: a limited-memory quasi-Newton step from the two-loop
recursion over the last ``LBFGS_MEMORY`` curvature pairs, projection onto the
box bounds, Armijo backtracking on the projected point, and a
curvature-guarded pair update.  A solve stops on its iteration budget, on a
small projected gradient, or once an accepted step lowers J by no more than
``FTOL`` relative to max(|J_old|, |J_new|, 1), the relative-reduction test of
L-BFGS-B (Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput. 16, 1995).  The
regularization weight can be chosen by a fixed-point iteration that balances
the data-fit term against the penalty, which needs no noise-level knowledge.

In absorption-only mode the diffusion coefficient is held fixed and the
penalty reduces to (rho/2) int q^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import FieldError
from .field import PiecewiseConstantField
from .fem import assemble, solve_dirichlet_many, solve_neumann_many
from .mesh import TriMesh

Q_ONLY = "q_only"
JOINT = "joint"

# Curvature pairs kept by the limited-memory inverse Hessian.
LBFGS_MEMORY = 20
# An accepted step that lowers J by at most FTOL * max(|J_old|, |J_new|, 1)
# ends the solve.
FTOL = 1e-12
# Armijo sufficient-decrease constant; step halvings tried after the full step.
ARMIJO = 1e-4
MAX_BACKTRACKS = 30
# Balancing: at most BALANCE_MAX_OUTER solves, stop once rho moves <= BALANCE_RTOL.
BALANCE_MAX_OUTER = 20
BALANCE_RTOL = 1e-3


@dataclass(frozen=True)
class MeasurementSet:
    """Flux/trace pairs (g_k, f_k) on the inversion mesh.

    ``fluxes`` and ``traces`` stack the g_k and f_k as (n_boundary, K) columns.
    """

    mesh: TriMesh
    pairs: tuple
    fluxes: np.ndarray = dc_field(init=False, repr=False, compare=False)
    traces: np.ndarray = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.pairs) < 1:
            raise FieldError("a measurement set needs at least one pair")
        for g, f in self.pairs:
            if g.mesh is not self.mesh or f.mesh is not self.mesh:
                raise FieldError("measurement traces live on a different mesh")
        for name, k in (("fluxes", 0), ("traces", 1)):
            stacked = np.column_stack([pair[k].values for pair in self.pairs])
            stacked.setflags(write=False)
            object.__setattr__(self, name, stacked)

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass
class InversionConfig:
    """Settings for reconstruction.

    ``sigma0`` is the known diffusion in q-only mode and the initial guess in
    joint mode; ``q0`` is the initial absorption guess.  Bounds are inclusive
    boxes applied per element.  ``max_iter`` and ``gradient_tolerance`` bound
    the projected L-BFGS descent; ``beta_balance`` sets the balancing target.
    Optimizer internals are module constants: ``LBFGS_MEMORY`` = 20, ``FTOL`` =
    1e-12, ``ARMIJO`` = 1e-4, ``MAX_BACKTRACKS`` = 30 step halvings, and for
    the balancing fixed point ``BALANCE_MAX_OUTER`` = 20 and ``BALANCE_RTOL`` = 1e-3.
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
    """Per-iteration log of a BFGS run and the objective evaluations it made."""

    rows: list = dc_field(default_factory=list)
    converged: bool = False
    message: str = ""
    evaluations: int = 0

    def add(self, iteration, value, data_fit, penalty, grad_norm, step):
        self.rows.append({"iteration": iteration, "J": value, "data_fit": data_fit,
                          "penalty": penalty, "grad_norm": grad_norm, "step": step})


def _solutions(meas: MeasurementSet, sigma, q):
    """One assembly and the two K-column solves shared by value and gradient.

    Returns (A, U_N, U_D) with the Neumann and Dirichlet solutions of pair k
    in column k of the (n_nodes, K) arrays.  The factorizations are released
    on return, before the fit and gradient allocate their temporaries.
    """
    sys = assemble(meas.mesh, sigma, q)
    return sys.matrix, solve_neumann_many(sys, meas.fluxes), solve_dirichlet_many(sys, meas.traces)


def _data_fit(matrix, un, ud) -> float:
    """sum_k w_k^T A w_k over the columns of W = U_N - U_D."""
    w = un - ud
    return float(np.sum(w * (matrix @ w)))


def _penalty(mesh, sigma, q, rho, mode):
    """The penalty (rho/2) P, its integral P = int sigma^2 + q^2, and its gradient.

    In q-only mode sigma is known: P = int q^2 and the sigma gradient is None.
    Returns (value, P, (g_sigma, g_q)).
    """
    integral = float(np.sum(mesh.areas * q.values ** 2))
    gsig = None
    if mode == JOINT:
        integral += float(np.sum(mesh.areas * sigma.values ** 2))
        gsig = rho * mesh.areas * sigma.values
    return 0.5 * rho * integral, integral, (gsig, rho * mesh.areas * q.values)


def kv_terms(
    meas: MeasurementSet,
    sigma: PiecewiseConstantField,
    q: PiecewiseConstantField,
    rho: float,
    mode: str = JOINT,
) -> tuple[float, float, float]:
    """Return (J, data_fit, penalty) of the energy-misfit functional."""
    fit = _data_fit(*_solutions(meas, sigma, q))
    pen = _penalty(meas.mesh, sigma, q, rho, mode)[0]
    return fit + pen, fit, pen


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
    mesh = meas.mesh
    _, un, ud = _solutions(meas, sigma, q)
    gsig, gq = _add_data_gradient(mesh, un, ud, *_penalty(mesh, sigma, q, rho, mode)[2])
    return (None if gsig is None else PiecewiseConstantField(mesh, gsig),
            PiecewiseConstantField(mesh, gq))


def _add_data_gradient(mesh, un, ud, gsig, gq):
    """Add the data-fit gradient of all 2K solution columns to (gsig, gq) at once.

    The data-fit gradient is sum_k |grad u_Dk|^2 - |grad u_Nk|^2 for sigma and
    sum_k u_Dk^2 - u_Nk^2 for q, integrated over each element; a None gsig
    (q-only mode) stays None.
    """
    k = un.shape[1]
    u = np.concatenate((un, ud), axis=1)
    u0, u1, u2 = (u[mesh.elements[:, i]] for i in range(3))   # (n_elements, 2K) each
    # Sums over the K pairs are matrix-vector products: numpy's reduction
    # over a short last axis is several times slower.
    pairs = np.ones(k)
    # exact P1 integral of u^2 on an element: area/12 ((sum_i u_i)^2 + sum_i u_i^2)
    total = u0 + u1 + u2
    mass_sq = total * total + u0 * u0 + u1 * u1 + u2 * u2
    gq = mesh.areas / 12.0 * ((mass_sq[:, k:] - mass_sq[:, :k]) @ pairs) + gq
    if gsig is None:
        return None, gq
    g = mesh.element_grads[:, :, :, None]
    gx = g[:, 0, 0] * u0 + g[:, 1, 0] * u1 + g[:, 2, 0] * u2
    gy = g[:, 0, 1] * u0 + g[:, 1, 1] * u1 + g[:, 2, 1] * u2
    grad_sq = gx * gx + gy * gy
    return mesh.areas * ((grad_sq[:, k:] - grad_sq[:, :k]) @ pairs) + gsig, gq


class _Objective:
    """Stacked-vector view of the functional for the optimizer.

    The stacked layout lives here alone: sigma then q per element in joint
    mode, q alone in q-only mode, where sigma is the known ``sigma0``.
    """

    def __init__(self, meas, config):
        self.meas = meas
        self.config = config
        self.mesh = config.q0.mesh
        self.lo, self.hi = (self.stack(s, q) for s, q in
                            zip(config.sigma_bounds or (None, None), config.q_bounds))

    def stack(self, sigma, q):
        """The stacked vector of per-element arrays (or scalars) sigma and q."""
        blocks = (sigma, q) if self.config.mode == JOINT else (q,)
        n = self.mesh.n_elements
        return np.concatenate([np.broadcast_to(b, n) for b in blocks], dtype=float)

    def start(self, sigma, q):
        """The in-bounds stacked point of the fields (sigma, q)."""
        return self.project(self.stack(sigma.values, q.values))

    def split(self, x):
        n = self.mesh.n_elements
        if self.config.mode == JOINT:
            return PiecewiseConstantField(self.mesh, x[:n]), PiecewiseConstantField(self.mesh, x[n:])
        return self.config.sigma0, PiecewiseConstantField(self.mesh, x)

    def project(self, x):
        return np.clip(x, self.lo, self.hi)

    def value_and_gradient(self, x, rho):
        """(J, data_fit, penalty, stacked gradient); ``meas=None`` leaves the bare penalty."""
        sigma, q = self.split(x)
        pen, _, (gsig, gq) = _penalty(self.mesh, sigma, q, rho, self.config.mode)
        fit = 0.0
        if self.meas is not None:
            matrix, un, ud = _solutions(self.meas, sigma, q)
            fit = _data_fit(matrix, un, ud)
            gsig, gq = _add_data_gradient(self.mesh, un, ud, gsig, gq)
        return fit + pen, fit, pen, self.stack(gsig, gq)


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
    start: tuple[PiecewiseConstantField, PiecewiseConstantField] | None = None,
):
    """Projected L-BFGS descent on the energy-misfit functional.

    Returns (sigma_rec, q_rec, trace); ``trace.message`` names the stop and
    ``trace.evaluations`` counts the objective evaluations made.
    ``meas=None`` optimizes the bare penalty (useful as a convexity sanity
    check).  ``start``, a (sigma, q) pair of fields, overrides the configured
    initial guess (used by warm-started outer loops).
    """
    obj = _Objective(meas, config)
    rho = config.rho if rho is None else rho
    x = obj.start(*(start or (config.sigma0, config.q0)))
    hessian = _LimitedMemoryInverseHessian()
    trace = OptimizationTrace()

    def evaluate(x_eval):
        trace.evaluations += 1
        return obj.value_and_gradient(x_eval, rho)

    value, fit, pen, grad = evaluate(x)
    pg_norm = float(np.linalg.norm(x - obj.project(x - grad)))
    trace.add(0, value, fit, pen, pg_norm, 0.0)
    updated = False

    def backtrack(direction):
        step = 1.0
        for _ in range(MAX_BACKTRACKS + 1):
            x_new = obj.project(x + step * direction)
            dx = x_new - x
            slope = float(grad @ dx)
            if slope < 0.0:
                v_new, fit_new, pen_new, grad_new = evaluate(x_new)
                if v_new <= value + ARMIJO * slope:
                    return x_new, v_new, fit_new, pen_new, grad_new, step
            step *= 0.5
        return None

    for it in range(1, config.max_iter + 1):
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

        reduction = value - v_new
        scale = max(abs(value), abs(v_new), 1.0)
        x, value, fit, pen, grad = x_new, v_new, fit_new, pen_new, grad_new
        pg_norm = float(np.linalg.norm(x - obj.project(x - grad)))
        trace.add(it, value, fit, pen, pg_norm, step)
        if reduction <= FTOL * scale:
            trace.converged = True
            trace.message = (f"relative reduction {reduction / scale:.3e} of J "
                             f"below FTOL {FTOL:.0e}")
            break
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
    |(beta - 1) F - (rho/2) P| of the minimizer at its own rho and the
    objective evaluations spent on it (the first row includes the evaluation
    at the start that set its rho).  Degenerates to rho = 0 (flagged in the
    history) for noise-free consistent data.
    """
    obj = _Objective(meas, config)
    beta = config.beta_balance
    sigma0, q0 = obj.split(obj.start(config.sigma0, config.q0))
    _, fit0, _ = kv_terms(meas, sigma0, q0, 0.0, config.mode)
    pen0 = _penalty(meas.mesh, sigma0, q0, 0.0, config.mode)[1]
    scale = abs(fit0) + abs(pen0)
    if fit0 <= 1e-14 * scale:
        return 0.0, [{"outer": 0, "rho": 0.0, "data_fit": fit0, "penalty_integral": pen0,
                      "residual": 0.0, "degenerate": True, "objective_evaluations": 1}]

    rho = 2.0 * (beta - 1.0) * fit0 / pen0
    history = []
    start = None
    evaluations = 1
    for outer in range(1, BALANCE_MAX_OUTER + 1):
        sigma_rec, q_rec, trace = bfgs_minimize(meas, config, rho=rho, start=start)
        start = (sigma_rec, q_rec)
        fit = trace.rows[-1]["data_fit"]
        pen = _penalty(meas.mesh, sigma_rec, q_rec, rho, config.mode)[1]
        residual = abs((beta - 1.0) * fit - 0.5 * rho * pen)
        history.append(
            {"outer": outer, "rho": rho, "data_fit": fit, "penalty_integral": pen,
             "residual": residual, "degenerate": False,
             "objective_evaluations": evaluations + trace.evaluations}
        )
        evaluations = 0
        if fit <= 1e-14 * (abs(fit) + abs(pen)):
            return 0.0, history
        rho_next = 2.0 * (beta - 1.0) * fit / pen
        if abs(rho_next - rho) <= BALANCE_RTOL * rho:
            break
        rho = rho_next
    return history[-1]["rho"], history
