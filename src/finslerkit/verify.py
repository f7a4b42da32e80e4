"""Invariant suites: every identity the pipeline is supposed to satisfy,
checked at seeded random phase points with explicit tolerances.

Each check produces a :class:`SuiteResult` with the worst residual seen
and the tolerance it was held to.  One table, ``_SUITES``, declares every
suite once: its name, its tolerance and its note.  Its order is the
report order, and a name missing from it raises instead of dropping out
of the report.  A row with a note is report-only (``asserted=False``): it
records a quantity the governing claims do not pin down numerically (chi
outside the families below, y-independence of the Hamel residual, the
closed-form-vs-charpoly comparison) and never affects the overall verdict.

Families gate what is asserted, by the ``claims`` of their rows
(:class:`finslerkit.metrics.Family`); a family-specific suite runs only
where its family claims it:

* chi = 0 is claimed by every Riemannian family (euclidean and
  riemannian) and by the constant-curvature ball family; elsewhere chi
  is reported.  On a Riemannian metric tau depends on x alone, so
  dS/dy = dtau/dx and D(dS/dy) = dS/dx, which is chi = 0.
* nabla E = 0 and the Hamel residual are equivalent to chi = 0 and share
  its claim, so a custom metric with genuine chi-curvature fails neither.
* the Hamel-residual/chi biconditional is asserted for every metric.

All tolerances are relative to natural scales with an absolute floor, so
identically-zero cases pass cleanly.

The sample is walked once.  Each point is evaluated at seed order 6, and
that one evaluation feeds every suite that looks at the point, those on
a leading subset of the sample included: sigma independence (the first
25 points), the homogeneity ladder (40), Hamel y-independence and the
printed closed forms (10) and the finite-difference oracle (2) run while
the point's evaluation is in hand.  An order-5 value part equals the
order-6 one, so nothing changes by reading them off the deeper jet.  The
evaluations that *are* the checks stay separate.

Evaluations are lazy, and each builds only the tensors its suites read:

* the point's order-6 evaluation: F, g, h, g^-1, G, N, the Jacobi
  endomorphism (only for jacobi_vanishes), B, E,
  the other two routes E_S and E_CL (through I, J and their
  derivatives), tau, S, chi, the Hamel residual and the covariant
  derivatives of g and E; the scalar-flag diagnosis only for
  euclidean_flag_zero;
* the one under the test density sigma: E, E_S, chi and tau;
* the ones at lambda*y for lambda = 2 and 1/2: F, g, g^-1, G, N and E,
  which are all the ladder and the first integrals compare; these take
  at most one x-derivative of F^2, so their jets are seeded at x-degree
  cap 1 (:mod:`finslerkit.tensors`), the others at the default cap 2;
* the one at a second fiber direction: the Hamel residual;
* the finite-difference oracle: an order-4 jet of F^2, also at cap 2,
  and the float F^2 values of every sampled partial's stencil points, in
  one array call (:func:`finslerkit.fdcheck.fd_partials`).

None of them builds a full curvature packet (:meth:`PointEvaluation.packet`)
or the curvature R^i_jk of the nonlinear connection.  No suite compares
R^i_jk, and a packet would build it, with the Jacobi endomorphism, S,
chi, I, J and the flag, at every evaluation: 39 % of the jet products of
4-point verifies of the n = 3 catalog, the n = 4 ball and a Randers metric.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import expr, fdcheck, integrals, metrics
from .metrics import PhasePoint
from .tensors import PointEvaluation, _out_of_range

__all__ = ["SuiteResult", "VerifyReport", "verify_metric", "SIGMA_TEST_EXPRESSION"]

# fixed smooth positive test density for the sigma-independence check
SIGMA_TEST_EXPRESSION = "exp(2*(0.3*x1 - 0.2*x2 + 0.1*normx2))"
_SIGMA_TEST_NODE = expr.parse_expression(SIGMA_TEST_EXPRESSION)


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


def _norm(a) -> float:
    """The 2-norm of ``a``'s entries; one past the float range is
    :func:`verify_metric`'s error naming the point."""
    return float(np.linalg.norm(np.asarray(a).ravel()))


# chi, the Hamel residual and nabla E: reported only unless the family claims chi_vanishes
_NO_CLAIM = "reported only: no vanishing claim covers this family"

# name: (tolerance, note), one row per suite, in report order.  A non-empty
# note marks a report-only row, which never affects the verdict.
_SUITES: dict[str, tuple[float, str]] = {
    # structural identities of the fundamental tensor
    "g_symmetric": (1e-12, ""),
    "g_yy_equals_F2": (1e-10, ""),
    "h_annihilates_y": (1e-9, ""),
    "h_rank_n_minus_1": (1e-9, ""),
    # mean Berwald structure
    "E_symmetric": (1e-10, ""),
    "E_annihilates_y": (1e-9, ""),
    "I_contracts_to_zero": (1e-10, ""),
    "J_contracts_to_zero": (1e-10, ""),
    "B_totally_symmetric": (1e-12, ""),
    "three_route_E_agreement": (1e-7, ""),
    # dynamical covariant derivative, chi and the Hamel residual
    "nabla_g_vanishes": (1e-9, ""),
    "nabla_E_vanishes": (1e-7, _NO_CLAIM),
    "chi_vanishes": (1e-7, _NO_CLAIM),
    "hamel_residual": (1e-6, _NO_CLAIM),
    "hamel_chi_biconditional": (0.0, ""),
    # family-specific
    "jacobi_vanishes": (1e-8, ""),
    "euclidean_flag_zero": (1e-10, ""),
    "riemannian_degeneration": (1e-10, ""),
    # first integrals
    "EE_annihilates_y": (1e-9, ""),
    "EE_determinant_vanishes": (1e-8, ""),
    "newton_identities": (1e-9, ""),
    "bordered_equals_c_last": (1e-8, ""),
    "charpoly_fit_agrees": (1e-9, ""),
    # suites on a leading subset of the sample
    "homogeneity_ladder": (1e-9, ""),
    "sigma_independence": (1e-8, ""),
    "sigma_shifts_tau": (0.0, "tau must move when sigma does: evidence the test density reaches tau"),
    # the tolerance is the finite-difference oracle's error budget for
    # quartic-type energies at the step it settles on, not the jets' accuracy
    "jets_match_finite_differences": (1e-4, ""),
    "hamel_y_independence": (0.0, "reported only: no tolerance-bearing claim"),
    "closed_forms_vs_charpoly": (0.0, "reported only: normalizations differ; recorded, not reconciled"),
}


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
    points = metrics.sample_points(spec, n_points, seed)
    spec_b = replace(spec, sigma=_SIGMA_TEST_NODE)  # the metric under the test density
    n = spec.dimension
    claims = metrics.FAMILIES[spec.family].claims

    worst: dict[str, float] = {}

    def add(name, residual):
        """Record one residual of the suite ``name``, a row of the table."""
        if name not in _SUITES:
            raise KeyError(f"suite {name!r} has no row in the suite table")
        residual = float(residual)
        if residual > worst.setdefault(name, 0.0):
            worst[name] = residual

    idxs = _fd_index_sample(n)
    # draws a second fiber direction at each of the first ten points, in order
    rng2 = np.random.default_rng(seed + 1)

    # the oracle's row is reported even when every partial is below its noise floor
    add("jets_match_finite_differences", 0.0)

    try:
        # a float overflow outside a stage is an error naming the point
        with np.errstate(over="raise", invalid="raise"):
            for i, p in enumerate(points):
                ev = PointEvaluation(spec, p, order=6)
                y = np.array(p.y)
                F2 = ev.F2.num
                g = ev.g.num
                gs = max(1.0, _norm(g))
                E = ev.E.num
                Es = max(1.0, _norm(E))
                N = ev.N.num
                I = ev.I.num
                J = ev.J.num
                S_y = ev._grad_y(ev.S).num
                chi_v = ev.chi.num
                hamel = ev.hamel.num
                B = ev.B.num

                # structural identities of the fundamental tensor
                add("g_symmetric", _norm(g - g.T) / gs)
                add("g_yy_equals_F2", abs(y @ g @ y - F2) / max(1.0, F2))
                h = ev.h.num
                add("h_annihilates_y", _norm(h @ y) / gs)
                eigs = np.sort(np.abs(np.linalg.eigvalsh(h)))
                add("h_rank_n_minus_1", eigs[0] / max(1.0, eigs[-1]))

                # mean Berwald structure; contractions scale with the tensors involved
                ys = max(1.0, _norm(y))
                add("E_symmetric", _norm(E - E.T) / Es)
                add("E_annihilates_y", _norm(E @ y) / (Es * ys))
                add("I_contracts_to_zero", abs(y @ I) / max(1.0, _norm(I) * ys))
                add("J_contracts_to_zero", abs(y @ J) / max(1.0, _norm(J) * ys))
                perm_worst = 0.0
                for a, b, c in itertools.permutations(range(3)):
                    perm = B.transpose(0, 1 + a, 1 + b, 1 + c)
                    perm_worst = max(perm_worst, float(np.abs(B - perm).max()))
                add("B_totally_symmetric", perm_worst / max(1.0, float(np.abs(B).max())))

                # three routes to E
                E_S = ev.E_S.num
                E_CL = ev.E_CL.num
                add("three_route_E_agreement", _norm(E - E_S) / Es)
                add("three_route_E_agreement", _norm(E - E_CL) / Es)
                add("three_route_E_agreement", _norm(E_S - E_CL) / Es)

                # dynamical covariant derivative
                add("nabla_g_vanishes", _norm(ev.nabla2(ev.g).num) / gs)
                nabla_E = ev.nabla2(ev.E).num
                add("nabla_E_vanishes", _norm(nabla_E) / (1.0 + _norm(E) * _norm(N)))

                # chi and the Hamel residual (scaled by the same natural magnitude)
                scale_chi = 1.0 + _norm(N) * _norm(S_y)
                add("chi_vanishes", _norm(chi_v) / scale_chi)
                add("hamel_residual", _norm(hamel) / scale_chi)
                if "jacobi_vanishes" in claims:
                    add("jacobi_vanishes", _norm(ev.R_jac.num) / max(1.0, _norm(N) ** 2))

                # first integrals
                F = ev.F.num
                fis = integrals.first_integral_set(F, g, ev.g_inv.num, E, y)
                EEs = max(1.0, _norm(fis.EE))
                add("EE_annihilates_y", _norm(fis.EE @ y) / EEs)
                add("EE_determinant_vanishes", abs(np.linalg.det(fis.EE)) / EEs**n)
                add("newton_identities", fis.newton_residual)
                add("bordered_equals_c_last", abs(fis.bordered_value - fis.c[-1]) / max(1.0, abs(fis.c[-1])))
                fit = integrals.charpoly_fit(fis.EE)
                fit_res = max(
                    float(np.abs(fit[: n - 1] - fis.c).max()), abs(float(fit[-1]))
                ) / max(1.0, float(np.abs(fis.c).max()))
                add("charpoly_fit_agrees", fit_res)

                if "riemannian_degeneration" in claims:
                    for t in (B, E, I, J, fis.f, fis.c):
                        add("riemannian_degeneration", float(np.abs(t).max()))

                if "euclidean_flag_zero" in claims:
                    flag = ev.flag
                    add("euclidean_flag_zero", abs(flag.kappa))
                    add("euclidean_flag_zero", flag.residual)

                # sigma independence: E, E_S and chi must not see the reference
                # volume; E_S reads it through S = D(tau), whose shift is linear in y
                if i < 25:
                    ev_b = PointEvaluation(spec_b, p, order=5)
                    E_b, E_S_b, chi_b = ev_b.E.num, ev_b.E_S.num, ev_b.chi.num
                    add("sigma_independence", _norm(E - E_b) / Es)
                    add("sigma_independence", _norm(E_S - E_S_b) / Es)
                    add("sigma_independence", _norm(chi_v - chi_b) / max(1.0, _norm(chi_v)))
                    add("sigma_shifts_tau", abs(ev.tau.num - ev_b.tau.num))

                # jets against the finite-difference oracle
                if i < 2:
                    x_fd = 0.5 * np.asarray(p.x)  # keep FD stencils well inside the domain
                    # the sampled indices take at most two x-derivatives: cap 2
                    jet = PointEvaluation(spec, PhasePoint(x_fd, p.y), order=4).F2
                    coords = list(x_fd) + list(p.y)
                    jet_vals = {m: jet.extract(m) for m in idxs}
                    scale = max(abs(v) for v in jet_vals.values())
                    # the stencil points of every sampled partial in one array F^2 call
                    fds = fdcheck.fd_partials(lambda points: metrics.f2_values(spec, points), coords, idxs)
                    for m, fd in zip(idxs, fds):
                        # partials smaller than the stencils' roundoff amplification
                        # are invisible to the oracle: both routes agree the value is
                        # "zero at this resolution" and a ratio would be pure noise
                        noise = fdcheck.noise_floor(max(scale, abs(jet.value)), coords, m)
                        if max(abs(jet_vals[m]), abs(fd)) <= 50.0 * noise:
                            continue
                        denom = max(abs(jet_vals[m]), abs(fd), 1e-8)
                        add("jets_match_finite_differences", abs(fd - jet_vals[m]) / denom)

                # homogeneity: exact 0-homogeneous invariance and the degree ladder
                if i < 40:
                    G = ev.G.num
                    for lam in (2.0, 0.5):
                        F_l, g_l, G_l, N_l, E_l, fis_l = _ladder_values(spec, PhasePoint(p.x, lam * y))
                        add("homogeneity_ladder", _norm(fis.EE - fis_l.EE) / EEs)
                        add("homogeneity_ladder", float(np.abs(fis.f - fis_l.f).max()) / max(1.0, float(np.abs(fis.f).max())))
                        add("homogeneity_ladder", float(np.abs(fis.c - fis_l.c).max()) / max(1.0, float(np.abs(fis.c).max())))
                        add("homogeneity_ladder", abs(F_l - lam * F) / max(1.0, F))
                        add("homogeneity_ladder", _norm(g_l - g) / gs)
                        add("homogeneity_ladder", _norm(G_l - lam**2 * G) / max(1.0, _norm(G)))
                        add("homogeneity_ladder", _norm(N_l - lam * N) / max(1.0, _norm(N)))
                        add("homogeneity_ladder", _norm(E_l - E / lam) / Es)

                if i < 10:
                    # y-independence of the Hamel residual (basic 2-form)
                    y2 = rng2.standard_normal(n)
                    y2 /= np.linalg.norm(y2)
                    h2 = PointEvaluation(spec, PhasePoint(p.x, y2), order=5).hamel.num
                    add("hamel_y_independence", _norm(hamel - h2))
                    # printed closed forms against the char-poly coefficients
                    if "closed_forms_vs_charpoly" in claims and n == 3:
                        g1p, g2p = integrals.paper_closed_forms(p)
                        add("closed_forms_vs_charpoly", abs(g1p - fis.c[0]))
                        add("closed_forms_vs_charpoly", abs(g2p - fis.c[1]))
    except FloatingPointError as err:
        raise _out_of_range("verify", p, err) from None

    # Lemma-grade biconditional: S is a Hamel function iff chi vanishes
    chi_small = worst["chi_vanishes"] <= _SUITES["chi_vanishes"][0]
    hamel_small = worst["hamel_residual"] <= _SUITES["hamel_residual"][0]
    add("hamel_chi_biconditional", 0.0 if chi_small == hamel_small else 1.0)

    suites = []
    for name, (tol, note) in _SUITES.items():
        if name not in worst:
            continue
        if note == _NO_CLAIM and "chi_vanishes" in claims:
            note = ""
        asserted = not note
        w = worst[name]
        suites.append(SuiteResult(name, not asserted or bool(w <= tol), w, tol, asserted, note))
    passed = all(s.passed for s in suites if s.asserted)
    return VerifyReport(metric=spec.name, n_points=n_points, seed=seed, suites=tuple(suites), passed=passed)
