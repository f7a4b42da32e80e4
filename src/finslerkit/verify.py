"""Invariant suites: every identity the pipeline is supposed to satisfy,
checked at seeded random phase points with explicit tolerances.

Each check produces a :class:`SuiteResult` with the worst residual seen
and the tolerance it was held to.  Checks marked ``asserted=False`` are
report-only: they record quantities the governing claims do not pin down
numerically (chi for curved Riemannian metrics, y-independence of the
Hamel residual, the closed-form-vs-charpoly comparison) and never affect
the overall verdict.

Families gate what is asserted:

* chi = 0 is asserted for flat metrics (euclidean, or riemannian whose
  sampled Jacobi endomorphism vanishes) and for the constant-curvature
  ball family; elsewhere chi is reported.
* nabla E = 0 is asserted only where chi is small (they are equivalent),
  so a custom metric with genuine chi-curvature fails neither.
* the Hamel-residual/chi biconditional is asserted for every metric.

All tolerances are relative to natural scales with an absolute floor, so
identically-zero cases pass cleanly.

Each sampled point is evaluated once, at seed order 6, and that one
evaluation feeds every suite that looks at the point.  The suites that
run on a leading subset of the sample -- sigma independence (25 points),
the homogeneity ladder (40), Hamel y-independence and the printed closed
forms (10) -- read a record the main loop keeps of the point: its F, g,
G, N, E, chi, tau, first integrals and Hamel residual.  An order-5 value
part equals the order-6 one, so nothing changes by reading them off the
deeper jet.  The evaluations that *are* the checks stay separate.

Evaluations are lazy, and each builds only the tensors its suites read:

* the point's order-6 evaluation: F, g, h, g^-1, G, N, the Jacobi
  endomorphism (for the flat gate and the ball's jacobi_vanishes), B, E,
  the other two routes E_S and E_CL (through I, J and their
  derivatives), tau, S, chi, the Hamel residual and the covariant
  derivatives of g and E; the scalar-flag diagnosis only for the
  euclidean family;
* the one under the overridden density sigma: E, chi and tau;
* the ones at lambda*y for lambda = 2 and 1/2: F, g, g^-1, G, N and E,
  which are all the ladder and the first integrals compare; these take
  at most one x-derivative of F^2, so their jets are seeded at x-degree
  cap 1 (:mod:`finslerkit.tensors`), the others at the default cap 2;
* the one at a second fiber direction: the Hamel residual;
* the finite-difference oracle: an order-4 jet of F^2, also at cap 2,
  and float values.

None of them builds a full curvature packet (:meth:`PointEvaluation.packet`)
or the curvature R^i_jk of the nonlinear connection.  No suite compares
R^i_jk, and a packet would build it, with the Jacobi endomorphism, S,
chi, I, J and the flag, at every evaluation: 39 % of the jet products of
4-point verifies of the n = 3 catalog, the n = 4 ball and a Randers metric.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fdcheck, integrals, metrics
from .metrics import PhasePoint
from .tensors import PointEvaluation

__all__ = ["SuiteResult", "VerifyReport", "verify_metric", "SIGMA_TEST_EXPRESSION"]

# fixed smooth positive test density for the sigma-independence check
SIGMA_TEST_EXPRESSION = "exp(2*(0.3*x1 - 0.2*x2 + 0.1*normx2))"


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    worst: float
    tol: float
    asserted: bool = True
    note: str = ""


@dataclass(frozen=True)
class VerifyReport:
    metric: str
    n_points: int
    seed: int
    suites: tuple[SuiteResult, ...]
    passed: bool


class _PointRecord(NamedTuple):
    """What the subset suites read of one sampled point."""

    point: PhasePoint
    F: float
    g: np.ndarray
    G: np.ndarray
    N: np.ndarray
    E: np.ndarray
    chi: np.ndarray
    tau: float
    fis: integrals.FirstIntegralSet
    hamel: np.ndarray


def _norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a).ravel()))


class _Collect:
    """Worst-residual accumulator for one named check."""

    def __init__(self, name, tol, asserted=True, note=""):
        self.name = name
        self.tol = tol
        self.asserted = asserted
        self.note = note
        self.worst = 0.0

    def add(self, residual: float):
        residual = float(residual)
        if residual > self.worst:
            self.worst = residual

    def result(self) -> SuiteResult:
        return SuiteResult(
            name=self.name,
            passed=True if not self.asserted else bool(self.worst <= self.tol),
            worst=self.worst,
            tol=self.tol,
            asserted=self.asserted,
            note=self.note,
        )


def _fd_index_sample(n: int) -> list[tuple[int, ...]]:
    """Fixed mixed-partial multi-indices covering total orders 1..4 (n >= 2)."""
    dim = 2 * n

    def mi(*positions):
        m = [0] * dim
        for pos in positions:
            m[pos] += 1
        return tuple(m)

    return [
        mi(0), mi(n),
        mi(0, n), mi(1, 1), mi(n + 1, n + 1),
        mi(0, 1, n), mi(n, n, 0),
        mi(0, 0, n, n), mi(n, n, n, n), mi(0, 1, n, n + 1),
    ]


def _ladder_values(spec, point: PhasePoint):
    """(F, g, G, N, E, first integrals) at one point of the homogeneity
    ladder, from a lazy order-5 evaluation that is freed on return; none
    of them needs a second x-derivative of F^2, so it is seeded at cap 1."""
    ev = PointEvaluation(spec, point, order=5, x_cap=1)
    F, g, E = ev.F.num, ev.g.num, ev.E.num
    fis = integrals.first_integral_set(F, g, ev.g_inv.num, E, np.array(point.y))
    return F, g, ev.G.num, ev.N.num, E, fis


def verify_metric(spec, n_points: int = 200, seed: int = 0) -> VerifyReport:
    """Run every applicable invariant suite on one metric."""
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points!r}")
    rng = np.random.default_rng(seed)
    points = [metrics.sample_phase_point(spec, rng) for _ in range(n_points)]
    n = spec.dimension
    is_funk = spec.family == "funk_ball_berwald"
    is_riem = spec.family in ("euclidean", "riemannian")

    checks: dict[str, _Collect] = {}

    def collect(name, tol, asserted=True, note=""):
        if name not in checks:
            checks[name] = _Collect(name, tol, asserted, note)
        return checks[name]

    chi_scaled_values = []
    hamel_scaled_values = []
    jacobi_norms = []
    chi_note = ""
    # records of the leading points, for the subset suites after the loop
    shared: list[_PointRecord] = []

    for x, y in points:
        ev = PointEvaluation(spec, PhasePoint(x, y), order=6)
        y = np.array(ev.point.y)
        F2 = ev.F2.num
        g = ev.g.num
        gs = max(1.0, _norm(g))
        E = ev.E.num
        Es = max(1.0, _norm(E))
        N = ev.N.num
        I = ev.I.num
        J = ev.J.num
        S_y = np.array([ev.dy(ev.S, i).num for i in range(n)])
        chi_v = ev.chi.num
        hamel = ev.hamel.num
        R_jac = ev.R_jac.num
        B = ev.B.num

        # structural identities of the fundamental tensor
        collect("g_symmetric", 1e-12).add(_norm(g - g.T) / gs)
        collect("g_yy_equals_F2", 1e-10).add(abs(y @ g @ y - F2) / max(1.0, F2))
        h = ev.h.num
        collect("h_annihilates_y", 1e-9).add(_norm(h @ y) / gs)
        eigs = np.sort(np.abs(np.linalg.eigvalsh(h)))
        collect("h_rank_n_minus_1", 1e-9).add(eigs[0] / max(1.0, eigs[-1]))

        # mean Berwald structure; contractions scale with the tensors involved
        ys = max(1.0, _norm(y))
        collect("E_symmetric", 1e-10).add(_norm(E - E.T) / Es)
        collect("E_annihilates_y", 1e-9).add(_norm(E @ y) / (Es * ys))
        collect("I_contracts_to_zero", 1e-10).add(abs(y @ I) / max(1.0, _norm(I) * ys))
        collect("J_contracts_to_zero", 1e-10).add(abs(y @ J) / max(1.0, _norm(J) * ys))
        perm_worst = 0.0
        for a, b, c in itertools.permutations(range(3)):
            perm = B.transpose(0, 1 + a, 1 + b, 1 + c)
            perm_worst = max(perm_worst, float(np.abs(B - perm).max()))
        collect("B_totally_symmetric", 1e-12).add(perm_worst / max(1.0, float(np.abs(B).max())))

        # three routes to E
        E_S = ev.E_S.num
        E_CL = ev.E_CL.num
        route = collect("three_route_E_agreement", 1e-7)
        route.add(_norm(E - E_S) / Es)
        route.add(_norm(E - E_CL) / Es)
        route.add(_norm(E_S - E_CL) / Es)

        # dynamical covariant derivative
        collect("nabla_g_vanishes", 1e-9).add(_norm(ev.nabla2(ev.g).num) / gs)
        nabla_E = ev.nabla2(ev.E).num
        scale_ne = 1.0 + _norm(E) * _norm(N)
        collect("nabla_E_vanishes", 1e-7).add(_norm(nabla_E) / scale_ne)

        # chi and the Hamel residual (scaled by the same natural magnitude)
        scale_chi = 1.0 + _norm(N) * _norm(S_y)
        chi_scaled_values.append(_norm(chi_v) / scale_chi)
        hamel_scaled_values.append(_norm(hamel) / scale_chi)
        jacobi_norms.append(_norm(R_jac) / max(1.0, _norm(N) ** 2))

        # first integrals
        F = ev.F.num
        fis = integrals.first_integral_set(F, g, ev.g_inv.num, E, y)
        EEs = max(1.0, _norm(fis.EE))
        collect("EE_annihilates_y", 1e-9).add(_norm(fis.EE @ y) / EEs)
        collect("EE_determinant_vanishes", 1e-8).add(abs(np.linalg.det(fis.EE)) / EEs**n)
        collect("newton_identities", 1e-9).add(fis.newton_residual)
        collect("bordered_equals_c_last", 1e-8).add(
            abs(fis.bordered_value - fis.c[-1]) / max(1.0, abs(fis.c[-1]))
        )
        fit = integrals.charpoly_fit(fis.EE)
        fit_res = max(
            float(np.abs(fit[: n - 1] - fis.c).max()), abs(float(fit[-1]))
        ) / max(1.0, float(np.abs(fis.c).max()))
        collect("charpoly_fit_agrees", 1e-9).add(fit_res)
        if len(shared) < 40:  # the largest subset read below
            shared.append(_PointRecord(ev.point, F, g, ev.G.num, N, E, chi_v, ev.tau.num, fis, hamel))

        if is_riem:
            degeneration = collect("riemannian_degeneration", 1e-10)
            degeneration.add(float(np.abs(B).max()))
            degeneration.add(float(np.abs(E).max()))
            degeneration.add(float(np.abs(I).max()))
            degeneration.add(float(np.abs(J).max()))
            degeneration.add(float(np.abs(fis.f).max()))
            degeneration.add(float(np.abs(fis.c).max()))

        if spec.family == "euclidean":
            flag = ev.flag
            flat_flag = collect("euclidean_flag_zero", 1e-10)
            flat_flag.add(abs(flag.kappa))
            flat_flag.add(flag.residual)

    # family-dependent gating for chi assertions
    max_jacobi = max(jacobi_norms)
    max_chi = max(chi_scaled_values)
    max_hamel = max(hamel_scaled_values)
    flat_riemannian = is_riem and max_jacobi <= 1e-10
    if is_funk or spec.family == "euclidean" or flat_riemannian:
        chi_assert, chi_note = True, ""
    else:
        chi_assert = False
        chi_note = "reported only: no vanishing claim covers this family"
    chi_check = collect("chi_vanishes", 1e-7, asserted=chi_assert, note=chi_note)
    chi_check.add(max_chi)
    hamel_check = collect(
        "hamel_residual", 1e-6, asserted=chi_assert, note=chi_note
    )
    hamel_check.add(max_hamel)
    # nabla E = 0 is equivalent to chi = 0, so it inherits the same gating
    checks["nabla_E_vanishes"].asserted = chi_assert
    checks["nabla_E_vanishes"].note = chi_note
    # Lemma-grade biconditional: S is a Hamel function iff chi vanishes
    bicond = collect("hamel_chi_biconditional", 0.0)
    bicond.add(0.0 if (max_chi <= 1e-7) == (max_hamel <= 1e-6) else 1.0)

    if is_funk:
        collect("jacobi_vanishes", 1e-8).add(max_jacobi)

    # sigma independence: E and chi must not see the reference volume
    sigma_check = collect("sigma_independence", 1e-8)
    sigma_shift = 0.0
    for rec in shared[:25]:
        ev_b = PointEvaluation(spec, rec.point, order=5, sigma=SIGMA_TEST_EXPRESSION)
        E_b, chi_b = ev_b.E.num, ev_b.chi.num
        sigma_check.add(_norm(rec.E - E_b) / max(1.0, _norm(rec.E)))
        sigma_check.add(_norm(rec.chi - chi_b) / max(1.0, _norm(rec.chi)))
        sigma_shift = max(sigma_shift, abs(rec.tau - ev_b.tau.num))
    collect(
        "sigma_shifts_tau", 0.0, asserted=False,
        note="tau must move when sigma does; reported as evidence the override is live",
    ).add(sigma_shift)

    # jets against the finite-difference oracle (sampled subset); the
    # tolerance is the oracle's error budget for quartic-type energies at
    # the step it settles on, not the jets' accuracy
    fd_check = collect("jets_match_finite_differences", 1e-4)
    idxs = _fd_index_sample(n)
    for x, y in points[:2]:
        x = 0.5 * np.asarray(x)  # keep FD stencils well inside the domain
        # the sampled indices take at most two x-derivatives: cap 2
        jet = PointEvaluation(spec, PhasePoint(x, y), order=4).F2

        def f2_flat(c):
            return metrics.f2_value(spec, c[:n], c[n:])

        coords = list(x) + list(y)
        jet_vals = {m: jet.extract(m) for m in idxs}
        scale = max(abs(v) for v in jet_vals.values())
        for m in idxs:
            fd = fdcheck.fd_partial(f2_flat, coords, m)
            # partials smaller than the stencils' roundoff amplification
            # are invisible to the oracle: both routes agree the value is
            # "zero at this resolution" and a ratio would be pure noise
            noise = fdcheck.noise_floor(max(scale, abs(jet.value)), coords, m)
            if max(abs(jet_vals[m]), abs(fd)) <= 50.0 * noise:
                continue
            denom = max(abs(jet_vals[m]), abs(fd), 1e-8)
            fd_check.add(abs(fd - jet_vals[m]) / denom)

    # homogeneity: exact 0-homogeneous invariance and the degree ladder
    homog = collect("homogeneity_ladder", 1e-9)
    for rec in shared[:40]:
        x, y = rec.point.x, np.array(rec.point.y)
        fis1 = rec.fis
        for lam in (2.0, 0.5):
            F_l, g_l, G_l, N_l, E_l, fis_l = _ladder_values(spec, PhasePoint(x, lam * y))
            homog.add(_norm(fis1.EE - fis_l.EE) / max(1.0, _norm(fis1.EE)))
            homog.add(float(np.abs(fis1.f - fis_l.f).max()) / max(1.0, float(np.abs(fis1.f).max())))
            homog.add(float(np.abs(fis1.c - fis_l.c).max()) / max(1.0, float(np.abs(fis1.c).max())))
            homog.add(abs(F_l - lam * rec.F) / max(1.0, rec.F))
            homog.add(_norm(g_l - rec.g) / max(1.0, _norm(rec.g)))
            homog.add(_norm(G_l - lam**2 * rec.G) / max(1.0, _norm(rec.G)))
            homog.add(_norm(N_l - lam * rec.N) / max(1.0, _norm(rec.N)))
            homog.add(_norm(E_l - rec.E / lam) / max(1.0, _norm(rec.E)))

    # report-only: y-independence of the Hamel residual (basic 2-form)
    basic = collect(
        "hamel_y_independence", 0.0, asserted=False,
        note="reported only: no tolerance-bearing claim",
    )
    rng2 = np.random.default_rng(seed + 1)
    for rec in shared[:10]:
        y2 = rng2.standard_normal(n)
        y2 /= np.linalg.norm(y2)
        h2 = PointEvaluation(spec, PhasePoint(rec.point.x, y2), order=5).hamel.num
        basic.add(_norm(rec.hamel - h2))

    # report-only: printed closed forms against the char-poly coefficients
    if is_funk and n == 3:
        gap = collect(
            "closed_forms_vs_charpoly", 0.0, asserted=False,
            note="reported only: normalizations differ; recorded, not reconciled",
        )
        worst_gap = 0.0
        for rec in shared[:10]:
            g1p, g2p = integrals.paper_closed_forms(rec.point)
            worst_gap = max(worst_gap, abs(g1p - rec.fis.c[0]), abs(g2p - rec.fis.c[1]))
        gap.add(worst_gap)

    order = [
        "g_symmetric", "g_yy_equals_F2", "h_annihilates_y", "h_rank_n_minus_1",
        "E_symmetric", "E_annihilates_y", "I_contracts_to_zero", "J_contracts_to_zero",
        "B_totally_symmetric", "three_route_E_agreement", "nabla_g_vanishes",
        "nabla_E_vanishes", "chi_vanishes", "hamel_residual", "hamel_chi_biconditional",
        "jacobi_vanishes", "euclidean_flag_zero", "riemannian_degeneration",
        "EE_annihilates_y", "EE_determinant_vanishes", "newton_identities",
        "bordered_equals_c_last", "charpoly_fit_agrees", "homogeneity_ladder",
        "sigma_independence", "sigma_shifts_tau", "jets_match_finite_differences",
        "hamel_y_independence", "closed_forms_vs_charpoly",
    ]
    suites = tuple(checks[name].result() for name in order if name in checks)
    passed = all(s.passed for s in suites if s.asserted)
    return VerifyReport(metric=spec.name, n_points=n_points, seed=seed, suites=suites, passed=passed)
