"""Benchmark of lvctl: run one workload for a while, check it, print metrics.

    python3 perfbench/run.py --workload presets --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout.  lvcontrol is imported from
src/ of that checkout and driven in-process through ``lvcontrol.cli.main``
on config files this script writes, so it measures the interface users
drive.  One operation is one scenario run; it fails when lvctl exits
non-zero, when an independent check on its outputs fails, or when its
output files differ from those of the run's first round.  Rounds of the
whole workload repeat until ``--seconds`` have passed.

The last line of standard output is one JSON object.  With ``--trace 0`` it
holds the end-to-end metrics; with ``--trace 1`` the layers are traced
(see tracing.py) and it holds the per-layer metrics instead.  Units come
from BENCHMARK.json.  Round times go to standard error.
"""

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def import_lvcontrol():
    """The lvcontrol package of this checkout, never an installed copy."""
    src = ROOT / "src"
    if not (src / "lvcontrol" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lvcontrol sources in {src}")
    sys.path.insert(0, str(src))
    import lvcontrol
    import lvcontrol.cli

    if Path(lvcontrol.__file__).resolve().parent != (src / "lvcontrol").resolve():
        raise SystemExit(f"perfbench: lvcontrol imported from {lvcontrol.__file__}, not {src}")
    return lvcontrol


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_scenario(lv, cfg_path: Path, out: Path, seed: int) -> tuple[float, int, str]:
    """One `lvctl run` in-process; returns (seconds, exit code, stderr)."""
    if out.exists():
        shutil.rmtree(out)
    captured_out, captured_err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(captured_out), redirect_stderr(captured_err):
        rc = lv.cli.main(["run", str(cfg_path), "--out", str(out), "--seed", str(seed)])
    return time.perf_counter() - start, rc, captured_err.getvalue().strip()


def rewrite_csv(path: Path, column: str, change) -> None:
    """Replace one column of an lvctl CSV by ``change(column)``, in place."""
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[2:]])
    j = header.index(column)
    rows[:, j] = change(rows[:, j])
    body = [",".join(repr(float(x)) for x in row) for row in rows]
    path.write_text("\n".join(lines[:2] + body) + "\n")


def checker_rejects_corruption(checks, scenario, out: Path, scratch: Path) -> list[str]:
    """Corrupt copies of a passing output; the checks must reject each one."""
    cap = float(scenario.sections["params"]["a1"]) / float(scenario.sections["params"]["b1"])

    def out_of_box(col):
        col = col.copy()
        col[col.shape[0] // 2] = 1.5 * cap
        return col

    corruptions = {
        "one control value out of its box": ("control_boundary.csv", "cu_left", out_of_box),
        "target shifted by 1e-6": ("target.csv", "u", lambda col: col + 1e-6),
    }
    missed = []
    for what, (name, column, change) in corruptions.items():
        if scratch.exists():
            shutil.rmtree(scratch)
        shutil.copytree(out, scratch)
        rewrite_csv(scratch / name, column, change)
        if not checks.check_scenario(scenario.preset, scenario.sections, scratch):
            missed.append(f"checks accepted outputs with {what}")
    shutil.rmtree(scratch)
    return missed


def metric_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    import workloads  # the benchmark's own modules sit next to this file

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    units = metric_units()
    lv = import_lvcontrol()
    import checks
    import tracing

    scenarios = workloads.WORKLOADS[args.workload]
    rundir = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    configs = {}
    for sc in scenarios:
        configs[sc.preset] = rundir / "cfg" / f"{sc.preset}.cfg"
        configs[sc.preset].parent.mkdir(parents=True, exist_ok=True)
        configs[sc.preset].write_text(sc.text())

    setup_s = process_age()
    tracer = tracing.install(lv) if args.trace else None
    scenario_walls = {sc.preset: [] for sc in scenarios}
    rounds, first_digest = 0, {}
    attempted = failed = 0
    begin = time.perf_counter()
    try:
        while rounds == 0 or time.perf_counter() - begin < args.seconds:
            for sc in scenarios:
                out = rundir / "out" / sc.preset
                seconds, rc, err = run_scenario(lv, configs[sc.preset], out, args.seed)
                scenario_walls[sc.preset].append(seconds)
                attempted += 1
                problems = (checks.check_scenario(sc.preset, sc.sections, out) if rc == 0
                            else [f"exit {rc}: {err}"])
                if rc == 0:
                    d = digest(out)
                    if first_digest.setdefault(sc.preset, d) != d:
                        problems.append("outputs differ from the first round's")
                if problems:
                    failed += 1
                    print(f"perfbench: {sc.preset} failed: " + "; ".join(problems), file=sys.stderr)
            rounds += 1
            print(f"perfbench: round {rounds}: "
                  + ", ".join(f"{k} {v[-1]:.3f} s" for k, v in scenario_walls.items()),
                  file=sys.stderr)
    finally:
        if tracer is not None:
            tracer.remove()

    missed = []
    if failed == 0:
        target = next(sc for sc in scenarios if sc.preset in ("two_phase", "min_time"))
        missed = checker_rejects_corruption(checks, target, rundir / "out" / target.preset,
                                            rundir / "corrupt")
        for message in missed:
            print(f"perfbench: {message}", file=sys.stderr)

    if tracer is not None:
        values = tracing.layer_metrics(tracer, rounds)
        trace_dir = ROOT / ".perfbench" / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(trace_dir / f"{args.workload}-s{args.seed}.csv")
    else:
        values = {
            "setup_s": setup_s,
            # One round's time, each scenario at its fastest round: other
            # tenants of the machine only ever add time, so the fastest
            # round is the one they disturbed least.
            "wall_s": sum(min(v) for v in scenario_walls.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    shutil.rmtree(rundir)
    result = {
        "correct": failed == 0 and not missed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items() if k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
