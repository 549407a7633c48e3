"""Reference figure, not a workload: the full-size minimum-time pair.

    python3 perfbench/reference.py

Runs the ``min_time`` preset at its defaults (n=99, dt=0.005) with and
without the interior control, the pair behind acceptance criterion 7,
traced, and prints for each the wall time, T*, the probe verdicts and the
pass counts.  It takes about a quarter of an hour on two cores.
"""

import io
import sys
import time
from contextlib import redirect_stdout

import run
import tracing

COUNTS = ("optimal_control.probes", "optimal_control.solves", "optimal_control.solves_converged",
          "optimal_control.iterations", "optimal_control.line_search_trials",
          "optimal_control.forward_passes", "optimal_control.forward_steps",
          "optimal_control.adjoint_passes", "optimal_control.adjoint_steps",
          "linalg.banded_solves")


def main() -> int:
    lv = run.import_lvcontrol()
    rundir = run.ROOT / ".perfbench" / "reference"
    for use_h in ("true", "false"):
        cfg = rundir / f"min_time_h_{use_h}.cfg"
        cfg.parent.mkdir(parents=True, exist_ok=True)
        cfg.write_text(f"[preset]\nname = min_time\n\n[min_time]\nuse_h = {use_h}\n")
        tracer = tracing.install(lv)
        captured = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(captured):
                rc = lv.cli.main(["run", str(cfg), "--out", str(rundir / f"out_{use_h}")])
        finally:
            tracer.remove()
        wall = time.perf_counter() - start
        layers = tracing.layer_metrics(tracer, 1)
        print(f"use_h = {use_h}: exit {rc}, traced wall {wall:.1f} s")
        for line in captured.getvalue().splitlines():
            if line.startswith(("T_star", "terminal_distance", "probe")):
                print("  " + line)
        for key in COUNTS:
            print(f"  {key} = {layers[key]:.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
