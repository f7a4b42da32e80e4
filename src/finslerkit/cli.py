"""Command-line interface: inspect, verify, flow, bracket.

Exit codes: 0 success, 1 invariant/drift/bracket assertion failure,
2 setup error (bad config, unknown field, point outside the domain),
3 integrator step failure.

Reports are JSON with a ``schema_version`` field; given the same seed and
options the bytes are identical across runs except for the
``generated_at`` timestamp line.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import flow, integrals, metrics, tensors, verify
from .errors import FinslerError, StepFailure, UnknownFieldError

__all__ = ["main", "cmd_inspect", "cmd_verify", "cmd_flow", "cmd_bracket"]

SCHEMA_VERSION = 1


def _json_default(obj):
    """What ``json`` cannot encode itself: ndarrays, numpy bools and ints,
    and dataclasses (numpy floats are floats to it)."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit(report: dict, out: str | None) -> None:
    _write(json.dumps(report, default=_json_default, sort_keys=True, indent=2) + "\n", out)


def _report(command: str, spec: metrics.MetricSpec, **fields) -> dict:
    """A report: the header every command writes, then ``fields``."""
    return {
        "schema_version": SCHEMA_VERSION,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "metric": spec.name,
        **fields,
    }


def _load_spec(name_or_path: str) -> metrics.MetricSpec:
    path = Path(name_or_path)
    if path.exists():
        return metrics.load_metric_file(path)
    built_in = metrics.catalog()
    if name_or_path in built_in:
        return built_in[name_or_path]
    raise FinslerError(
        f"metric {name_or_path!r} is neither a readable file nor one of the "
        f"built-ins: {', '.join(sorted(built_in))}"
    )


def _parse_floats(text: str, what: str) -> list[float]:
    """Comma-separated numbers; a component that is not one is a setup error
    naming ``what``.  :class:`~finslerkit.metrics.PhasePoint` checks the rest."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise FinslerError(f"{what} has a component that is not a number") from None


def _parse_point(text: str) -> metrics.PhasePoint:
    parts = text.split(";")
    if len(parts) != 2:
        raise FinslerError(f"point {text!r} must look like 'x1,..,xn;y1,..,yn'")
    return metrics.PhasePoint(*(_parse_floats(part, f"point {text!r}") for part in parts))


def _bounded(option: str, kind, bound, strict: bool = True):
    """An argparse type for ``option``: a finite ``kind`` above ``bound``, or
    at it unless ``strict``; any other value is a setup error."""
    relation = ">" if strict else ">="

    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and (value > bound if strict else value >= bound)):
            raise FinslerError(f"{option} must be a finite number {relation} {bound}, got {text}")
        return value

    return parse


class _Given(argparse.Action):
    """``store`` that also adds the option's dest to ``args.given``, so that
    an option a command would ignore in some combination is an error only
    where it was given."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = getattr(namespace, "given", frozenset()) | {self.dest}


def cmd_inspect(args) -> int:
    if args.point and args.given & {"seed", "npoints"}:
        raise FinslerError("inspect --point takes no --seed or --npoints: it samples no points")
    spec = _load_spec(args.metric)
    points = [_parse_point(t) for t in args.point or []] or metrics.sample_points(spec, args.npoints, args.seed)
    docs = []
    for p in points:
        pkt = tensors.PointEvaluation(spec, p).packet()
        fis = integrals.first_integral_set(pkt.F, pkt.g, pkt.g_inv, pkt.E, np.array(p.y))
        doc = {
            "jacobi" if f.name == "R_jac" else f.name: getattr(pkt, f.name)
            for f in dataclasses.fields(pkt)
            if f.name not in ("metric", "order", "B")
        }
        doc["alpha"] = dict(zip(("horizontal", "vertical"), pkt.alpha))
        doc.update((f.name, getattr(fis, f.name)) for f in dataclasses.fields(fis))
        docs.append(doc)
    _emit(_report("inspect", spec, seed=args.seed, points=docs), args.out)
    return 0


def cmd_verify(args) -> int:
    spec = _load_spec(args.metric)
    report = verify.verify_metric(spec, n_points=args.npoints, seed=args.seed)
    fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report) if f.name != "metric"}
    _emit(_report("verify", spec, **fields), args.out)
    return 0 if report.passed else 1


def cmd_flow(args) -> int:
    watch = [w for w in (args.watch or "").split(",") if w]
    if "tol" in args.given and not watch:
        raise FinslerError("flow --tol needs --watch: it bounds the watched fields' drift")
    spec = _load_spec(args.metric)
    x0 = _parse_floats(args.x0, f"--x0 {args.x0!r}")
    y0 = _parse_floats(args.y0, f"--y0 {args.y0!r}")
    if watch:
        integrals.field_order(spec, watch)  # an unknown field fails now, not after the integration
    settings = flow.IntegrateSettings(rtol=args.rtol, atol=args.atol)
    traj = flow.integrate(spec, (x0, y0), args.tmax, settings)
    # the CSV and the drift report read one evaluation per sample
    values = flow.field_values(spec, traj, watch) if watch else {}
    if args.out:
        Path(args.out).write_text(flow.trajectory_csv(traj, values))
    report = _report(
        "flow",
        spec,
        status=traj.status,
        t_final=float(traj.ts[-1]),
        samples=len(traj),
        stats=traj.stats,
        tol=args.tol,
    )
    exit_code = 0
    if watch:
        drift_report = flow.drift(traj, values, tol=args.tol)
        report["drift"] = {
            "passed": drift_report.passed,
            "fields": drift_report.fields,
        }
        exit_code = 0 if drift_report.passed else 1
    _emit(report, None)
    return exit_code


def cmd_bracket(args) -> int:
    spec = _load_spec(args.metric)
    names = [w for w in args.fields.split(",") if w]
    if len(names) != 2:
        raise UnknownFieldError("--fields takes exactly two comma-separated field ids")
    fa, fb = names
    rows = []
    max_scaled = 0.0
    for p in metrics.sample_points(spec, args.npoints, args.seed):
        value, scale = integrals.poisson_bracket_scaled(spec, fa, fb, p)
        scaled = abs(value) / scale
        max_scaled = max(max_scaled, scaled)
        rows.append({"point": p, "value": value, "scale": scale, "scaled": scaled})
    passed = max_scaled <= args.tol
    if args.format == "csv":
        columns = ["value", "scale", "scaled"]
        table = ([*row["point"].x, *row["point"].y, *(row[c] for c in columns)] for row in rows)
        _write(flow.phase_csv(spec.dimension, table, after=columns), args.out)
    else:
        report = _report(
            "bracket",
            spec,
            fields=[fa, fb],
            n_points=args.npoints,
            seed=args.seed,
            tol=args.tol,
            max_scaled=max_scaled,
            assert_zero=bool(args.assert_zero),
            passed=passed,
            values=rows,
        )
        _emit(report, args.out)
    if args.assert_zero and not passed:
        return 1
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``main`` looks up each
    subcommand's ``cmd_*`` function when it runs, so a patched one is used."""
    parser = argparse.ArgumentParser(
        prog="finslerkit",
        description="Finsler curvature pipeline: packets, invariant suites, "
        "geodesic flow and first-integral checks.",
    )
    parser.set_defaults(given=frozenset())
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, npoints_default):
        p.add_argument("--metric", required=True, help="metric config file or built-in name")
        p.add_argument("--seed", type=int, default=0, action=_Given, help="seed for phase-point sampling")
        p.add_argument("--out", help="write the report here instead of stdout")
        npoints = _bounded("--npoints", int, 1, strict=False)
        p.add_argument("--npoints", type=npoints, default=npoints_default, action=_Given, help="sample count")

    p_inspect = sub.add_parser("inspect", help="curvature packet and first integrals at points")
    common(p_inspect, 3)
    p_inspect.add_argument(
        "--point", action="append", help="phase point 'x1,..,xn;y1,..,yn' (repeatable; no --seed or --npoints)"
    )

    p_verify = sub.add_parser("verify", help="run the invariant suites")
    common(p_verify, 200)

    p_flow = sub.add_parser("flow", help="integrate a geodesic and measure field drift")
    # flow samples no points: it takes no --seed or --npoints
    p_flow.add_argument("--metric", required=True, help="metric config file or built-in name")
    p_flow.add_argument("--out", help="write the sampled trajectory here as CSV")
    p_flow.add_argument("--x0", required=True, help="initial position, comma-separated")
    p_flow.add_argument("--y0", required=True, help="initial velocity, comma-separated")
    p_flow.add_argument("--tmax", type=_bounded("--tmax", float, 0), required=True)
    p_flow.add_argument(
        "--rtol", type=_bounded("--rtol", float, 0, strict=False), default=flow.IntegrateSettings.rtol
    )
    p_flow.add_argument("--atol", type=_bounded("--atol", float, 0), default=flow.IntegrateSettings.atol)
    p_flow.add_argument("--watch", help="comma-separated field ids to track")
    p_flow.add_argument(
        "--tol", type=_bounded("--tol", float, 0, strict=False), default=flow.DRIFT_TOL, action=_Given,
        help="relative drift tolerance of the watched fields (needs --watch)",
    )

    p_bracket = sub.add_parser("bracket", help="Poisson bracket of two fields at sampled points")
    common(p_bracket, 50)
    p_bracket.add_argument("--fields", required=True, help="two field ids, comma-separated")
    p_bracket.add_argument(
        "--assert-zero", action="store_true", help="exit 1 unless |bracket| <= tol (scaled)"
    )
    p_bracket.add_argument(
        "--tol", type=_bounded("--tol", float, 0, strict=False), default=1e-6, help="scaled bracket tolerance"
    )
    p_bracket.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def _glue_vectors(argv: list[str]) -> list[str]:
    """``argv`` with each vector option joined to a next value that starts
    with a minus, as ``--x0=-0.3,..``: argparse takes only a lone number
    for a negative value, and any other for an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--point", "--x0", "--y0") and re.match(r"-[\d.]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    try:
        # an option value out of range is a setup error, raised while parsing
        args = _build_parser().parse_args(_glue_vectors(sys.argv[1:] if argv is None else argv))
        # stages, the spray and verify raise on a float overflow themselves;
        # this covers inspect's first integrals, bracket's terms and the
        # integrator, so every overflow ends in the one error line below
        with np.errstate(over="raise", invalid="raise"):
            return globals()[f"cmd_{args.command}"](args)
    except (FinslerError, OSError, ValueError, ArithmeticError) as exc:
        # an escaped ValueError (numpy's LinAlgError is one) or a float
        # overflow is still a setup error: one line and exit 2, never a
        # traceback; only a failed integrator step exits 3
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, StepFailure) else 2


if __name__ == "__main__":
    sys.exit(main())
