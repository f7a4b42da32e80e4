"""Per-layer tracing from outside the program.

:class:`Tracer` wraps finslerkit's layer entry points while it is installed,
patching each name where its caller looks it up (``flow`` and ``integrals``
import ``spray_values`` by name, for instance), and restores every original
on exit.  Layer boundaries record one span per call: name, start, end,
parent span and an optional tag.  The jet primitives are called thousands
of times per phase point, so they are aggregated instead: counts and summed
time, products per jet signature ``d<dim>o<order>``.

A span's self time is its duration minus the time covered by its child
spans.  ``*_s`` metrics of an entry point are inclusive times; ``self_s``
and ``tensors.stage_s.*`` are self times.  Jet-primitive time is not a
span, so it stays in the self time of the stage or layer that issued it.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

from finslerkit import cli, expr, fdcheck, flow, integrals, jets, metrics, tensors, verify
from workloads import TOWER_METRICS

# PointEvaluation stages; values name the class attribute where it differs
STAGES = {
    "F2": "F2", "F": "F", "g": "g", "g_inv": "_g_inv_det", "h": "h", "G": "G", "N": "N",
    "R_jac": "R_jac", "R_curv": "R_curv", "B": "B", "E": "E", "tau": "tau", "S": "S",
    "E_S": "E_S", "I": "I", "J": "J", "I_hcov": "I_hcov", "J_vder": "J_vder", "E_CL": "E_CL",
    "chi": "chi", "hamel": "hamel", "nabla2": "nabla2", "flag": "flag", "packet": "packet",
}
JET_FUNCTIONS = ("recip", "sqrt", "ln", "exp", "powc")
# n = 3 and n = 4 phase spaces, every order a seed-6 pipeline reaches
SIGNATURES = tuple(f"d{dim}o{order}" for dim in (6, 8) for order in range(7))
# metric names of the tower workload's verify calls
VERIFY_METRICS = tuple(label for label, *_ in TOWER_METRICS)

# (name, unit) of every metric :meth:`Tracer.layer_metrics` returns
LAYER_METRICS = (
    [("jets.mul_count", "count"), ("jets.mul_s", "s")]
    + [(f"jets.mul_count.{sig}", "count") for sig in SIGNATURES]
    + [
        ("jets.fn_count", "count"), ("jets.fn_s", "s"), ("jets.fn_mul_count", "count"),
        ("jets.d_count", "count"), ("jets.d_s", "s"),
        ("jets.truncated_count", "count"), ("jets.truncated_s", "s"),
        ("jets.dual_mul_count", "count"),
        ("tensors.evaluations.jet", "count"), ("tensors.evaluations.dual", "count"),
    ]
    + [(f"tensors.stage_s.{stage}", "s") for stage in STAGES]
    + [
        ("tensors.spray_values_count", "count"), ("tensors.spray_values_s", "s"),
        ("metrics.eval_F2_count", "count"), ("metrics.eval_F2_s", "s"),
        ("metrics.sample_candidates", "count"), ("metrics.sample_accept_ratio", "ratio"),
        ("expr.evaluate_count", "count"), ("expr.evaluate_s", "s"),
        ("integrals.bracket_count", "count"), ("integrals.bracket_s", "s"),
        ("integrals.spray_derivative_s", "s"),
        ("integrals.evaluate_fields_count", "count"), ("integrals.evaluate_fields_s", "s"),
        ("integrals.first_integral_set_s", "s"),
        ("flow.integrate_s", "s"), ("flow.steps", "count"), ("flow.rejections", "count"),
        ("flow.attempts", "count"), ("flow.nfev", "count"), ("flow.accept_ratio", "ratio"),
        ("flow.rhs_s", "s"), ("flow.drift_s", "s"), ("flow.csv_s", "s"), ("flow.samples", "count"),
        ("verify.self_s", "s"),
    ]
    + [(f"verify.metric_s.{name}", "s") for name in VERIFY_METRICS]
    + [("fdcheck.fd_partial_count", "count"), ("fdcheck.fd_partial_s", "s"), ("cli.self_s", "s")]
)


def _ratio(part: float, whole: float) -> float:
    """part / whole, or 0 when nothing was attempted (the base is reported beside it)."""
    return part / whole if whole else 0.0


class Tracer:
    """Install with ``with Tracer() as tracer:``; read the results after exit."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, tag]
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.jet_mul: dict[object, list] = {}  # JetSpace -> [products, seconds]
        self.jet_time: dict[str, float] = defaultdict(float)
        self._fn_depth = 0
        self._expr_depth = 0

    # -- spans ------------------------------------------------------------

    def _begin(self, name: str, tag=None) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, tag])
        self._stack.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _spanned(self, name: str, fn, tag=None, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._begin(name, tag(*args, **kwargs) if tag else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if on_result is not None:
                on_result(out, *args, **kwargs)
            return out

        return wrapper

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, name: str, **kw) -> None:
        self._patch(owner, attr, self._spanned(name, getattr(owner, attr), **kw))

    def __enter__(self):
        self._install_layers()
        self._install_stages()
        self._install_jets()
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _install_layers(self) -> None:
        c = self.counts
        self._wrap(cli, "main", "cli.main")
        self._wrap(verify, "verify_metric", "verify.verify_metric", tag=lambda spec, *a, **k: spec.name)
        self._wrap(fdcheck, "fd_partial", "fdcheck.fd_partial")

        spray = self._spanned("tensors.spray_values", tensors.spray_values)
        for module in (tensors, integrals, flow):
            self._patch(module, "spray_values", spray)

        self._wrap(metrics, "eval_F2", "metrics.eval_F2")

        def accepted(out, *args, **kwargs):
            c["sample_accepted"] += 1

        self._wrap(metrics, "sample_phase_point", "metrics.sample_phase_point", on_result=accepted)
        f2_value = self._spanned("metrics.f2_value", metrics.f2_value)

        def counted_f2_value(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][0] == "metrics.sample_phase_point":
                c["sample_candidates"] += 1
            return f2_value(*args, **kwargs)

        self._patch(metrics, "f2_value", counted_f2_value)

        # expr.evaluate recurses through its module global: span the outermost call only
        evaluate = expr.evaluate
        spanned_evaluate = self._spanned("expr.evaluate", evaluate)

        def outer_evaluate(*args, **kwargs):
            if self._expr_depth:
                return evaluate(*args, **kwargs)
            self._expr_depth = 1
            try:
                return spanned_evaluate(*args, **kwargs)
            finally:
                self._expr_depth = 0

        self._patch(expr, "evaluate", outer_evaluate)

        for attr in ("poisson_bracket_scaled", "spray_derivative_of_field", "evaluate_fields", "first_integral_set"):
            self._wrap(integrals, attr, f"integrals.{attr}")

        def integrated(traj, *args, **kwargs):
            c["flow_steps"] += traj.stats.steps
            c["flow_rejections"] += traj.stats.rejections
            c["flow_nfev"] += traj.stats.nfev
            c["flow_samples"] += len(traj)

        self._wrap(flow, "integrate", "flow.integrate", on_result=integrated)
        for attr in ("geodesic_rhs", "drift", "trajectory_csv"):
            self._wrap(flow, attr, f"flow.{attr}")

    def _install_stages(self) -> None:
        cls = tensors.PointEvaluation

        def constructed(_, ev, *args, **kwargs):
            self.counts["evaluations." + ("dual" if isinstance(ev.seeds[0], jets.DualLayer) else "jet")] += 1

        self._wrap(cls, "__init__", "tensors.PointEvaluation", on_result=constructed)
        for stage, attr in STAGES.items():
            original = vars(cls)[attr]
            if isinstance(original, functools.cached_property):
                replacement = functools.cached_property(self._spanned(f"tensors.stage.{stage}", original.func))
                replacement.__set_name__(cls, attr)
                self._patch(cls, attr, replacement)
            else:
                self._wrap(cls, attr, f"tensors.stage.{stage}")

    def _install_jets(self) -> None:
        Jet = jets.Jet
        mul = Jet.__mul__
        jet_mul = self.jet_mul
        jet_time = self.jet_time
        c = self.counts

        def traced_mul(a, b):
            if b.__class__ is not Jet:
                return mul(a, b)  # scaling by a number is not a table product
            t0 = perf_counter()
            out = mul(a, b)
            dt = perf_counter() - t0
            rec = jet_mul.get(a.space)
            if rec is None:
                rec = jet_mul[a.space] = [0, 0.0]
            rec[0] += 1
            rec[1] += dt
            if self._fn_depth:
                c["fn_mul"] += 1
            return out

        self._patch(Jet, "__mul__", traced_mul)
        self._patch(Jet, "__rmul__", traced_mul)

        def timed(key, fn):
            def wrapper(*args):
                t0 = perf_counter()
                try:
                    return fn(*args)
                finally:
                    jet_time[key] += perf_counter() - t0
                    c[key] += 1

            return wrapper

        self._patch(Jet, "d", timed("d", Jet.d))
        self._patch(Jet, "truncated", timed("truncated", Jet.truncated))

        def outermost(fn):
            # sqrt calls powc: count and time the outer call only
            def wrapper(*args):
                if self._fn_depth:
                    return fn(*args)
                self._fn_depth = 1
                t0 = perf_counter()
                try:
                    return fn(*args)
                finally:
                    jet_time["fn"] += perf_counter() - t0
                    c["fn"] += 1
                    self._fn_depth = 0

            return wrapper

        for name in JET_FUNCTIONS:
            self._patch(Jet, name, outermost(getattr(Jet, name)))

        dual_mul = jets.DualLayer.__mul__

        def traced_dual_mul(a, b):
            if b.__class__ is jets.DualLayer:
                c["dual_mul"] += 1
            return dual_mul(a, b)

        self._patch(jets.DualLayer, "__mul__", traced_dual_mul)

    # -- results --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every metric of :data:`LAYER_METRICS`, from what was recorded."""
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        by_tag = defaultdict(float)
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, tag in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, parent, tag), child in zip(self.spans, covered):
            total[name] += end - start
            own[name] += end - start - child
            calls[name] += 1
            if tag is not None:
                by_tag[tag] += end - start

        c = self.counts
        mul_by_sig = {f"d{space.dim}o{space.order}": rec[0] for space, rec in self.jet_mul.items()}
        unknown = set(mul_by_sig) - set(SIGNATURES)
        if unknown:
            raise RuntimeError(f"jet signatures outside the declared set: {sorted(unknown)}")
        attempts = c["flow_steps"] + c["flow_rejections"]
        out = {
            "jets.mul_count": sum(mul_by_sig.values()),
            "jets.mul_s": sum(rec[1] for rec in self.jet_mul.values()),
            **{f"jets.mul_count.{sig}": mul_by_sig.get(sig, 0) for sig in SIGNATURES},
            "jets.fn_count": c["fn"],
            "jets.fn_s": self.jet_time["fn"],
            "jets.fn_mul_count": c["fn_mul"],
            "jets.d_count": c["d"],
            "jets.d_s": self.jet_time["d"],
            "jets.truncated_count": c["truncated"],
            "jets.truncated_s": self.jet_time["truncated"],
            "jets.dual_mul_count": c["dual_mul"],
            "tensors.evaluations.jet": c["evaluations.jet"],
            "tensors.evaluations.dual": c["evaluations.dual"],
            **{f"tensors.stage_s.{stage}": own[f"tensors.stage.{stage}"] for stage in STAGES},
            "tensors.spray_values_count": calls["tensors.spray_values"],
            "tensors.spray_values_s": total["tensors.spray_values"],
            "metrics.eval_F2_count": calls["metrics.eval_F2"],
            "metrics.eval_F2_s": total["metrics.eval_F2"],
            "metrics.sample_candidates": c["sample_candidates"],
            "metrics.sample_accept_ratio": _ratio(c["sample_accepted"], c["sample_candidates"]),
            "expr.evaluate_count": calls["expr.evaluate"],
            "expr.evaluate_s": total["expr.evaluate"],
            "integrals.bracket_count": calls["integrals.poisson_bracket_scaled"],
            "integrals.bracket_s": total["integrals.poisson_bracket_scaled"],
            "integrals.spray_derivative_s": total["integrals.spray_derivative_of_field"],
            "integrals.evaluate_fields_count": calls["integrals.evaluate_fields"],
            "integrals.evaluate_fields_s": total["integrals.evaluate_fields"],
            "integrals.first_integral_set_s": total["integrals.first_integral_set"],
            "flow.integrate_s": total["flow.integrate"],
            "flow.steps": c["flow_steps"],
            "flow.rejections": c["flow_rejections"],
            "flow.attempts": attempts,
            "flow.nfev": c["flow_nfev"],
            "flow.accept_ratio": _ratio(c["flow_steps"], attempts),
            "flow.rhs_s": total["flow.geodesic_rhs"],
            "flow.drift_s": total["flow.drift"],
            "flow.csv_s": total["flow.trajectory_csv"],
            "flow.samples": c["flow_samples"],
            "verify.self_s": own["verify.verify_metric"],
            **{f"verify.metric_s.{name}": by_tag[name] for name in VERIFY_METRICS},
            "fdcheck.fd_partial_count": calls["fdcheck.fd_partial"],
            "fdcheck.fd_partial_s": total["fdcheck.fd_partial"],
            "cli.self_s": own["cli.main"],
        }
        assert list(out) == [name for name, _ in LAYER_METRICS]
        return out

    def span_records(self, origin: float) -> list[list]:
        """Spans with times relative to ``origin``, for the trace file."""
        return [[name, start - origin, end - origin, parent, tag] for name, start, end, parent, tag in self.spans]
