"""The three benchmark workloads: ``tower``, ``bracket`` and ``flow``.

A workload is built from the run's seed, sets itself up (specs, config
files, one warm-up evaluation per jet signature it uses), and then offers a
fixed list of operations.  Each operation is one call into finslerkit's
public entry points -- a CLI subcommand run in-process through
``finslerkit.cli.main``, or a library call -- and carries the check that
judges its output against a reference from :mod:`checks`.  A round runs
every operation once, in order, each one starting when the previous one
returns.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks
from finslerkit import cli, integrals, metrics, tensors

BALL3 = "funk_ball_berwald"
SPHERE = "riemannian_round_sphere"
BALL4_CONFIG = "[metric]\nname = ball4\ndimension = 4\nfamily = funk_ball_berwald\n"
RANDERS_CONFIG = (
    f"[metric]\nname = randers3\ndimension = 3\nfamily = custom\nexpression = {checks.RANDERS_EXPRESSION}\n"
)

# (metric name in reports, catalog name or config file, closed-form kind, n)
TOWER_METRICS = (
    ("euclidean", "euclidean", "euclidean", 3),
    ("funk_ball_berwald", BALL3, "ball", 3),
    ("riemannian_flat_skew", "riemannian_flat_skew", "flat_skew", 3),
    ("riemannian_round_sphere", SPHERE, "sphere", 3),
    ("ball4", "ball4.cfg", "ball", 4),
    ("randers3", "randers3.cfg", "randers", 3),
)
TOWER_VERIFY_POINTS = 4
TOWER_INSPECT_POINTS = 3

# (metric, field pair, sampled points); the n = 4 pair costs ~4x per point
BRACKET_PAIRS = (
    (BALL3, "f1,f2", 4),
    (BALL3, "c1,c2", 4),
    (BALL3, "F,c2", 4),
    ("ball4.cfg", "f1,f3", 2),
)
SPRAY_FIELDS = ("f1", "c2")
SPRAY_POINTS = 3
GRADIENT_FIELD = "f1"
BALL_FIELDS = ("F", "f1", "f2", "c1", "c2")

# Base geodesics (x0, y0, t_max).  The ball's are off-axis (x0 not parallel
# to y0); the sphere's are great circles (|x0| = 1, y0 orthogonal to x0).
# The seed applies a signed permutation of the coordinates to each of them:
# both metrics are O(n)-invariant and the integrator's error norm is
# invariant under signed permutations, so every seed integrates congruent
# curves with the same step count, while each run sees other coordinates.
BALL_GEODESICS = (
    ((0.24, 0.12, -0.15), (0.21, 0.9, 0.34), 0.5),
    ((-0.2, 0.35, 0.3), (0.62, -0.18, 0.43), 0.5),
)
SPHERE_GEODESICS = (
    ((1 / 3, 2 / 3, 2 / 3), (1.0, 0.5, -1.0), 2.0),
    ((0.6, 0.0, -0.8), (0.96, 0.9, 0.72), 2.0),
)

# A ball point whose full tower at order 6 and whose dual runs at order 5
# build every product and derivative table a workload uses.
_WARM_POINT = ((0.1, -0.2, 0.15), (0.7, 0.3, -0.5))


@dataclass
class Operation:
    """One timed call into finslerkit and the check of what it returned."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def run_cli(argv) -> tuple[int, str]:
    """``finslerkit.cli.main`` in-process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _vec(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _point_arg(x, y) -> str:
    # '=' keeps argparse from reading a leading minus sign as an option
    return f"--point={_vec(x)};{_vec(y)}"


def _unit(rng, n) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _phase_point(rng, kind: str, n: int):
    """x inside |x| <= 0.8 for the ball, in [-1, 1]^n otherwise; |y| in [0.5, 2]."""
    if kind == "ball":
        x = 0.8 * rng.uniform() ** (1.0 / n) * _unit(rng, n)
    else:
        x = rng.uniform(-1.0, 1.0, n)
    return x, _unit(rng, n) * rng.uniform(0.5, 2.0)


def _cli_operation(label: str, argv, out_path: Path, check_output) -> Operation:
    """A CLI subcommand that writes ``out_path``; ``check_output(file text,
    stdout text)`` judges it once the exit code is known to be 0."""

    def run():
        out_path.unlink(missing_ok=True)  # a stale file from an earlier round must not pass
        return run_cli(argv)

    def check(result):
        code, stdout = result
        if code != 0:
            raise checks.CheckFailure(f"exit code {code}")
        check_output(out_path.read_text(), stdout)

    return Operation(label, run, check)


def _full_tower(spec, point, order):
    ev = tensors.PointEvaluation(spec, point, order=order)
    ev.packet()
    ev.nabla2(ev.E)
    ev.nabla2(ev.g)
    for name in ("hamel", "E_S", "E_CL", "chi"):
        getattr(ev, name)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.rng = np.random.default_rng([abs(seed), int(seed < 0), sum(map(ord, self.name))])

    def _cli_seed(self) -> int:
        return int(self.rng.integers(2**31))

    def _write_configs(self) -> None:
        (self.workdir / "ball4.cfg").write_text(BALL4_CONFIG)
        (self.workdir / "randers3.cfg").write_text(RANDERS_CONFIG)
        self.specs = dict(metrics.catalog(3))
        self.specs["ball4"] = metrics.load_metric_file(self.workdir / "ball4.cfg")
        self.specs["randers3"] = metrics.load_metric_file(self.workdir / "randers3.cfg")

    def _metric_arg(self, name: str) -> str:
        return str(self.workdir / name) if name.endswith(".cfg") else name

    def setup(self) -> None:
        """Build specs and warm the jet tables; counted in ``setup_s``."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Compute references that need the program; not timed."""

    def operations(self) -> list[Operation]:
        raise NotImplementedError


class Tower(Workload):
    """verify and inspect on every tower metric: orders 5 and 6, no duals, no flow."""

    name = "tower"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.inputs = []
        for label, arg, kind, n in TOWER_METRICS:
            points = [_phase_point(self.rng, kind, n) for _ in range(TOWER_INSPECT_POINTS)]
            self.inputs.append((label, arg, kind, points, self._cli_seed()))

    def setup(self):
        self._write_configs()
        x, y = _WARM_POINT
        _full_tower(self.specs[BALL3], tensors.PhasePoint(x, y), 6)
        _full_tower(self.specs["ball4"], tensors.PhasePoint(x + (0.05,), y + (0.2,)), 6)

    def operations(self):
        ops = []
        for label, arg, kind, points, cli_seed in self.inputs:
            metric = self._metric_arg(arg)
            verify_out = self.workdir / f"verify-{label}.json"
            inspect_out = self.workdir / f"inspect-{label}.json"
            verify_argv = [
                "verify", "--metric", metric, "--npoints", str(TOWER_VERIFY_POINTS),
                "--seed", str(cli_seed), "--out", str(verify_out),
            ]
            inspect_argv = ["inspect", "--metric", metric, "--out", str(inspect_out)]
            inspect_argv += [_point_arg(x, y) for x, y in points]

            ops.append(
                _cli_operation(
                    f"verify {label}", verify_argv, verify_out,
                    lambda text, _: checks.check_verify_report(json.loads(text), TOWER_VERIFY_POINTS),
                )
            )
            ops.append(
                _cli_operation(
                    f"inspect {label}", inspect_argv, inspect_out,
                    lambda text, _, kind=kind, points=points: checks.check_inspect_report(
                        kind, json.loads(text), points
                    ),
                )
            )
        return ops


class Bracket(Workload):
    """Poisson brackets and spray derivatives: the dual-seeded gradient path."""

    name = "bracket"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.pairs = [(arg, fields, npts, self._cli_seed()) for arg, fields, npts in BRACKET_PAIRS]
        self.spray_points = [_phase_point(self.rng, "ball", 3) for _ in range(SPRAY_POINTS)]
        self.gradient_point = _phase_point(self.rng, "ball", 3)

    def setup(self):
        self._write_configs()
        x, y = _WARM_POINT
        integrals.evaluate_fields(self.specs[BALL3], BALL_FIELDS, (x, y))
        integrals.evaluate_fields(self.specs["ball4"], ("f1", "f3"), (x + (0.05,), y + (0.2,)))

    def _bracket_references(self, arg, fields, npts, cli_seed):
        """The points ``bracket --seed cli_seed`` samples, and the scale of
        each row from :func:`checks.ball_bracket_terms`, with both fields'
        gradients taken by central differences of ``evaluate_fields``."""
        spec = self.specs[arg.removesuffix(".cfg")]
        n = spec.dimension
        fa, fb = fields.split(",")

        def both_fields(z):
            values = integrals.evaluate_fields(spec, (fa, fb), (z[:n], z[n:]))
            return np.array([values[fa], values[fb]])

        rng = np.random.default_rng(cli_seed)
        points, scales = [], []
        for _ in range(npts):
            x, y = metrics.sample_phase_point(spec, rng)
            grads = checks.central_gradient(both_fields, np.concatenate([x, y]), checks.BRACKET_FD_STEP)
            term1, term2 = checks.ball_bracket_terms(x, y, grads[:, 0], grads[:, 1])
            points.append((x, y))
            scales.append(1.0 + 0.5 * (abs(term1) + abs(term2)))
        return points, scales

    def prepare(self):
        self.bracket_references = [self._bracket_references(*pair) for pair in self.pairs]
        ball = self.specs[BALL3]
        self.field_values = [
            integrals.evaluate_fields(ball, SPRAY_FIELDS, tensors.PhasePoint(x, y))
            for x, y in self.spray_points
        ]

        def field_at(z):
            return integrals.evaluate_fields(ball, [GRADIENT_FIELD], (z[:3], z[3:]))[GRADIENT_FIELD]

        x, y = self.gradient_point
        self.gradient_reference = checks.central_gradient(field_at, np.concatenate([x, y]))

    def operations(self):
        ops = []
        for k, ((arg, fields, npts, cli_seed), (points, scales)) in enumerate(
            zip(self.pairs, self.bracket_references)
        ):
            out = self.workdir / f"bracket-{k}.json"
            argv = [
                "bracket", "--metric", self._metric_arg(arg), "--fields", fields, "--assert-zero",
                "--tol", repr(checks.BRACKET_TOL), "--npoints", str(npts), "--seed", str(cli_seed),
                "--out", str(out),
            ]
            ops.append(
                _cli_operation(
                    f"bracket {arg} {fields}", argv, out,
                    lambda text, _, points=points, scales=scales: checks.check_bracket_report(
                        json.loads(text), points, scales
                    ),
                )
            )
        ball = self.specs[BALL3]
        for (x, y), values in zip(self.spray_points, self.field_values):
            p = tensors.PhasePoint(x, y)
            for field in SPRAY_FIELDS:
                ops.append(
                    Operation(
                        f"spray derivative {field}",
                        lambda p=p, f=field: integrals.spray_derivative_of_field(ball, f, p),
                        lambda value, u=values[field]: checks.check_spray_derivative(value, u),
                    )
                )
        p = tensors.PhasePoint(*self.gradient_point)
        ops.append(
            Operation(
                f"field gradient {GRADIENT_FIELD}",
                lambda: integrals.field_gradient(ball, GRADIENT_FIELD, p),
                lambda out: checks.check_gradient(np.concatenate([out[1], out[2]]), self.gradient_reference),
            )
        )
        return ops


class Flow(Workload):
    """Geodesics: order-2 sprays inside the integrator plus order-5 watched fields."""

    name = "flow"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.ball = [self._oriented(*g) for g in BALL_GEODESICS]
        self.sphere = [self._oriented(*g) for g in SPHERE_GEODESICS]

    def _oriented(self, x0, y0, t_max):
        perm = self.rng.permutation(len(x0))
        signs = self.rng.choice((-1.0, 1.0), len(x0))
        return signs * np.asarray(x0)[perm], signs * np.asarray(y0)[perm], t_max

    def setup(self):
        self.specs = metrics.catalog(3)
        x, y = _WARM_POINT
        tensors.spray_values(self.specs[SPHERE], (x, y))
        integrals.evaluate_fields(self.specs[SPHERE], ["F"], (x, y))
        integrals.evaluate_fields(self.specs[BALL3], BALL_FIELDS, (x, y))

    def _flow_op(self, k, metric, x0, y0, t_max, watch, norm0, check_samples):
        csv_path = self.workdir / f"flow-{k}.csv"
        argv = [
            "flow", "--metric", metric, f"--x0={_vec(x0)}", f"--y0={_vec(y0)}", "--tmax", repr(t_max),
            "--watch", ",".join(watch), "--out", str(csv_path),
        ]

        def check_output(csv_text, report_text):
            header, rows = checks.parse_csv(csv_text)
            report = json.loads(report_text)
            checks.check_flow_report(report, watch, t_max, len(rows))
            checks.check_field_columns(header, rows, report, watch, norm0)
            check_samples(*checks.split_samples(header, rows, len(x0)))

        return _cli_operation(f"flow {metric} #{k}", argv, csv_path, check_output)

    def operations(self):
        ops = []
        for k, (x0, y0, t_max) in enumerate(self.ball):
            ops.append(
                self._flow_op(
                    k, BALL3, x0, y0, t_max, BALL_FIELDS, checks.ball_norm(x0, y0),
                    lambda ts, xs, ys, x0=x0, y0=y0: checks.check_line_samples(xs, ys, x0, y0),
                )
            )
        for k, (x0, y0, t_max) in enumerate(self.sphere, start=len(self.ball)):
            ops.append(
                self._flow_op(
                    k, SPHERE, x0, y0, t_max, ("F",), checks.inspect_reference("sphere", x0, y0)["F"],
                    lambda ts, xs, ys, x0=x0, y0=y0: checks.check_great_circle(ts, xs, ys, x0, y0),
                )
            )
        return ops


WORKLOADS = {cls.name: cls for cls in (Tower, Bracket, Flow)}
