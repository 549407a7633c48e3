"""Spans around the calls into each lvcontrol layer, installed from outside.

The tracer replaces module and class attributes with timing wrappers; it
changes nothing under src/ and nothing the wrapped functions return, so a
traced run writes the same bytes as an untraced one.  Every wrapped call
pushes a frame, so self time (a span minus the part its child spans cover)
is exact at every level.  Calls that happen per time step (a banded solve,
an IMEX step) are aggregated into a count and a total, because keeping
millions of them as spans would cost more memory than the run itself;
every other call is kept as a span (name, start, end, parent) in memory
and written out by ``write_spans`` when the run ends.

A hooked name that a later version of lvcontrol no longer has is skipped,
and the metrics built on it are reported as absent.
"""

from __future__ import annotations

import csv
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

_now = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at top level
    self_s: float


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    # name -> [calls, total seconds, self seconds, errors]
    totals: dict = field(default_factory=lambda: defaultdict(lambda: [0, 0.0, 0.0, 0]))
    counts: dict = field(default_factory=lambda: defaultdict(float))
    hooked: set = field(default_factory=set)
    _stack: list = field(default_factory=list)  # [child seconds, span index or -1]
    _undo: list = field(default_factory=list)

    def wrap(self, name, fn, keep_span=True, measure=None):
        stack, spans, totals, counts = self._stack, self.spans, self.totals, self.counts

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if keep_span:
                index = len(spans)
                spans.append(None)  # placeholder keeps parents before children
            else:
                index = parent
            frame = [0.0, index]
            stack.append(frame)
            failed = True
            start = _now()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = _now()
                stack.pop()
                duration = end - start
                self_s = duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                entry = totals[name]
                entry[0] += 1
                entry[1] += duration
                entry[2] += self_s
                entry[3] += failed
                if keep_span:
                    spans[index] = Span(name, start, end, parent, self_s)
            if measure is not None:
                for key, value in measure(args, result).items():
                    counts[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def hook(self, owner, attr, name, *, keep_span=True, measure=None, aliases=()):
        """Wrap ``owner.attr`` and every alias (module, attr) bound to the same object."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        wrapped = self.wrap(name, original, keep_span, measure)
        for target, target_attr in ((owner, attr),) + tuple(aliases):
            if getattr(target, target_attr, None) is original:
                self._undo.append((target, target_attr, original))
                setattr(target, target_attr, wrapped)
        self.hooked.add(name)

    def remove(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["index", "name", "start_s", "end_s", "parent", "self_s"])
            t0 = self.spans[0].start if self.spans else 0.0
            for i, s in enumerate(self.spans):
                out.writerow([i, s.name, f"{s.start - t0:.6f}", f"{s.end - t0:.6f}",
                              s.parent, f"{s.self_s:.6f}"])


def install(lv) -> Tracer:
    """Hook the layer boundaries of the imported lvcontrol package ``lv``."""
    import scipy.linalg

    tr = Tracer()
    modules = [getattr(lv, m) for m in ("cli", "csvio", "parabolic", "optimal_control", "elliptic",
                                        "discretization", "control_synthesis", "comparison")]

    def everywhere(attr, extra=()):
        return tuple((m, attr) for m in modules) + tuple(extra)

    def file_size(args, result):
        return {"csvio.bytes_written": os.path.getsize(args[0])}

    def simulated_steps(args, result):
        return {"parabolic.simulate_steps": len(result.constraint_report.times) - 1}

    def pass_steps(key):
        return lambda args, result: {key: args[0].N}

    def solve_outcome(args, result):
        return {"optimal_control.solves_converged": int(result.converged),
                "optimal_control.iterations": result.iterations}

    def probes(args, result):
        return {"optimal_control.probes": len(result.evaluations)}

    cli, par, oc, ell = lv.cli, lv.parabolic, lv.optimal_control, lv.elliptic
    tr.hook(cli, "main", "cli.main")
    tr.hook(lv.csvio, "write_csv", "csvio.write_csv", measure=file_size, aliases=everywhere("write_csv"))
    tr.hook(par, "simulate", "parabolic.simulate", measure=simulated_steps,
            aliases=everywhere("simulate"))
    tr.hook(par, "run_until_near", "parabolic.run_until_near", aliases=everywhere("run_until_near"))
    tr.hook(par.Stepper, "step", "parabolic.step", keep_span=False)
    # cho_solve_banded as each module references it; elliptic imports it
    # inside a function body, which reads the scipy.linalg attribute.
    tr.hook(scipy.linalg, "cho_solve_banded", "linalg.cho_solve_banded", keep_span=False,
            aliases=everywhere("cho_solve_banded"))
    tr.hook(oc, "minimum_time", "optimal_control.minimum_time", measure=probes,
            aliases=everywhere("minimum_time"))
    tr.hook(oc, "solve_fixed_horizon", "optimal_control.solve_fixed_horizon",
            measure=solve_outcome, aliases=everywhere("solve_fixed_horizon"))
    machinery = getattr(oc, "_Machinery", None)
    if machinery is not None:
        tr.hook(machinery, "forward", "optimal_control.forward",
                measure=pass_steps("optimal_control.forward_steps"))
        tr.hook(machinery, "gradient", "optimal_control.gradient",
                measure=pass_steps("optimal_control.adjoint_steps"))
    for attr in ("solve_steady_system", "_newton_logistic", "solve_logistic_theta",
                 "_smooth_logistic_guess", "coexistence_target", "probe_uniqueness"):
        tr.hook(ell, attr, f"elliptic.{attr}", aliases=everywhere(attr))
    tr.hook(lv.discretization, "principal_eigenvalue", "discretization.principal_eigenvalue",
            aliases=everywhere("principal_eigenvalue"))
    for attr in ("single_species_controls", "neumann_trace_controls",
                 "overshoot_release_controls", "two_phase_steering"):
        tr.hook(lv.control_synthesis, attr, f"control_synthesis.{attr}", aliases=everywhere(attr))
    for attr in ("monitor_constraints", "check_subsuper_pair"):
        tr.hook(lv.comparison, attr, f"comparison.{attr}", aliases=everywhere(attr))
    return tr


def layer_metrics(tr: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer numbers per round of the workload, by metric name.

    A metric whose hooks are missing is left out.
    """
    t, c, have = tr.totals, tr.counts, tr.hooked

    def calls(name):
        return t[name][0] if name in t else 0

    def total(name):
        return t[name][1] if name in t else 0.0

    def self_of(prefix):
        return sum(v[2] for k, v in t.items() if k.startswith(prefix))

    def per_call_us(name, n):
        return 1e6 * total(name) / n if n else None

    out = {}

    def put(key, value, needs):
        if value is not None and all(h in have for h in needs):
            out[key] = value / rounds if key in PER_ROUND else value

    step, sim, run = "parabolic.step", "parabolic.simulate", "parabolic.run_until_near"
    fwd, adj = "optimal_control.forward", "optimal_control.gradient"
    solve, mt = "optimal_control.solve_fixed_horizon", "optimal_control.minimum_time"
    chol = "linalg.cho_solve_banded"
    newton = ("elliptic.solve_steady_system", "elliptic._newton_logistic")
    trials = calls(fwd) - calls(solve)

    put("parabolic.step_calls", calls(step), [step])
    put("parabolic.step_us", per_call_us(step, calls(step)), [step])
    put("parabolic.simulate_steps", c["parabolic.simulate_steps"], [sim])
    put("parabolic.simulate_s", total(sim), [sim])
    put("parabolic.run_until_near_s", total(run), [run])
    put("optimal_control.probes", c["optimal_control.probes"], [mt])
    put("optimal_control.solves", calls(solve), [solve])
    put("optimal_control.solves_converged", c["optimal_control.solves_converged"], [solve])
    put("optimal_control.iterations", c["optimal_control.iterations"], [solve])
    put("optimal_control.line_search_trials", trials, [solve, fwd])
    put("optimal_control.accepted_trial_ratio",
        c["optimal_control.iterations"] / trials if trials else None, [solve, fwd])
    put("optimal_control.forward_passes", calls(fwd), [fwd])
    put("optimal_control.forward_steps", c["optimal_control.forward_steps"], [fwd])
    put("optimal_control.forward_step_us",
        per_call_us(fwd, c["optimal_control.forward_steps"]), [fwd])
    put("optimal_control.adjoint_passes", calls(adj), [adj])
    put("optimal_control.adjoint_steps", c["optimal_control.adjoint_steps"], [adj])
    put("optimal_control.adjoint_step_us",
        per_call_us(adj, c["optimal_control.adjoint_steps"]), [adj])
    put("optimal_control.solve_self_s", t[solve][2] if solve in t else 0.0, [solve])
    put("linalg.banded_solves", calls(chol), [chol])
    put("linalg.banded_solve_us", per_call_us(chol, calls(chol)), [chol])
    put("elliptic.newton_solves", sum(calls(n) for n in newton), newton)
    put("elliptic.newton_failed", sum(t[n][3] for n in newton if n in t), newton)
    put("elliptic.self_s", self_of("elliptic."), newton)
    put("discretization.eigen_s", total("discretization.principal_eigenvalue"),
        ["discretization.principal_eigenvalue"])
    put("control_synthesis.self_s", self_of("control_synthesis."),
        ["control_synthesis.two_phase_steering"])
    put("comparison.self_s", self_of("comparison."), ["comparison.monitor_constraints"])
    put("cli.self_s", self_of("cli."), ["cli.main"])
    put("csvio.write_s", total("csvio.write_csv"), ["csvio.write_csv"])
    put("csvio.bytes_written", c["csvio.bytes_written"], ["csvio.write_csv"])
    return out


# Metrics that add up over a run, reported per round; the others are ratios
# or per-call times and stand as measured.
PER_ROUND = {
    "parabolic.step_calls", "parabolic.simulate_steps", "parabolic.simulate_s",
    "parabolic.run_until_near_s", "optimal_control.probes", "optimal_control.solves",
    "optimal_control.solves_converged", "optimal_control.iterations",
    "optimal_control.line_search_trials", "optimal_control.forward_passes",
    "optimal_control.forward_steps", "optimal_control.adjoint_passes",
    "optimal_control.adjoint_steps", "optimal_control.solve_self_s", "linalg.banded_solves",
    "elliptic.newton_solves", "elliptic.newton_failed", "elliptic.self_s",
    "discretization.eigen_s", "control_synthesis.self_s", "comparison.self_s", "cli.self_s",
    "csvio.write_s", "csvio.bytes_written",
}
