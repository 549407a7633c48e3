"""Show that tracing leaves lvctl's outputs byte-identical, and what it costs.

    python3 perfbench/identity.py [workload ...]

Runs rounds of each workload untraced and traced in turn, in one process,
and compares every output file byte for byte.  Prints one line per
workload with the median round time of each kind, and exits non-zero on
any difference.
"""

import shutil
import statistics
import sys

import run
import tracing
import workloads

PAIRS = 5


def one_round(lv, name: str, rundir, seed: int, traced: bool):
    tracer = tracing.install(lv) if traced else None
    digests, wall = {}, 0.0
    try:
        for sc in workloads.WORKLOADS[name]:
            cfg = rundir / f"{sc.preset}.cfg"
            cfg.write_text(sc.text())
            out = rundir / "out" / sc.preset
            seconds, rc, err = run.run_scenario(lv, cfg, out, seed)
            if rc != 0:
                raise SystemExit(f"{name}/{sc.preset}: exit {rc}: {err}")
            wall += seconds
            digests[sc.preset] = run.digest(out)
    finally:
        if tracer is not None:
            tracer.remove()
    return digests, wall


def main(argv) -> int:
    lv = run.import_lvcontrol()
    rundir = run.ROOT / ".perfbench" / "identity"
    rundir.mkdir(parents=True, exist_ok=True)
    differ = False
    for name in argv or sorted(workloads.WORKLOADS):
        walls = {False: [], True: []}
        seen = set()
        for _ in range(PAIRS):
            for traced in (False, True):
                digests, wall = one_round(lv, name, rundir, 1, traced)
                walls[traced].append(wall)
                seen.add(tuple(sorted(digests.items())))
        same = len(seen) == 1
        differ |= not same
        plain, traced = statistics.median(walls[False]), statistics.median(walls[True])
        print(f"{name}: outputs {'identical' if same else 'DIFFER'}; median of {PAIRS} rounds "
              f"untraced {plain:.2f} s, traced {traced:.2f} s ({100 * (traced / plain - 1):+.1f} %)")
    shutil.rmtree(rundir)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
