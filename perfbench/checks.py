"""Independent checks on the files one `lvctl run` wrote.

Nothing here imports lvcontrol: the CSV reader, the steady residual, the
eigenvalue formula and the forward replay are written out again, so a
fault shared by the program and its own tests cannot hide here.  The
replay uses LU (scipy.linalg.solve_banded) where the program uses a
Cholesky solve, so it agrees with the program only to rounding.

Every check function takes the scenario's config (section -> key -> str),
its output directory and the parsed summary, and returns a list of
failure messages; an empty list means the outputs passed.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
from scipy.linalg import solve_banded

CSV_VERSION = "# lvctl-csv v1"
# Two computations of one quantity in different operation orders.
ROUNDING = 1e-10
# Newton stops at a residual of 1e-10; recomputing it costs some rounding.
STEADY_RESIDUAL_MAX = 1e-8


class Failures(list):
    def expect(self, ok, message: str) -> bool:
        if not ok:
            self.append(message)
        return bool(ok)


def read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        version = fh.readline().rstrip("\n")
        if version != CSV_VERSION:
            raise ValueError(f"{path.name}: version line {version!r}")
        header = fh.readline().rstrip("\n").split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.size == 0:
        data = np.empty((0, len(header)))
    if data.shape[1] != len(header):
        raise ValueError(f"{path.name}: {data.shape[1]} columns for header {header}")
    return {name: data[:, i] for i, name in enumerate(header)}


_NP_SCALAR = re.compile(r"^np\.\w+\((.*)\)$")


def number(text: str) -> float:
    """Parse a summary value; numpy 2 may print scalars as np.float64(x)."""
    match = _NP_SCALAR.match(text.strip())
    return float(match.group(1) if match else text)


def read_summary(path: Path) -> tuple[dict[str, str], list[str]]:
    """Key = value lines as a dict, plus every line in order."""
    lines = path.read_text().splitlines()
    values = {}
    for line in lines:
        key, sep, value = line.partition(" = ")
        if sep and key.isidentifier():
            values[key] = value
    return values, lines


def params(cfg) -> dict[str, float]:
    p = {k: float(v) for k, v in cfg["params"].items()}
    p.setdefault("omega_lo", 0.0)
    p.setdefault("omega_hi", p["L"])
    p["u_cap"] = p["a1"] / p["b1"]
    p["v_cap"] = p["a2"] / p["c2"]
    return p


def nodes(p, n: int) -> tuple[np.ndarray, float]:
    dx = p["L"] / (n + 1)
    return dx * np.arange(1, n + 1), dx


def second_difference(values: np.ndarray, left: float, right: float, dx: float) -> np.ndarray:
    padded = np.concatenate(([left], values, [right]))
    return (padded[:-2] - 2.0 * padded[1:-1] + padded[2:]) / dx**2


def steady_residual(p, u, v, u_bc: float, v_bc: float, dx: float, sigma: float = 0.0) -> float:
    f_u = (p["d1"] * second_difference(u, u_bc, u_bc, dx)
           + u * (p["a1"] - p["b1"] * u - p["c1"] * v) + sigma * u)
    f_v = (p["d2"] * second_difference(v, v_bc, v_bc, dx)
           + v * (p["a2"] - p["b2"] * u - p["c2"] * v))
    return float(max(np.max(np.abs(f_u)), np.max(np.abs(f_v))))


def sup_distance(u, v, tu, tv) -> float:
    return float(np.max(np.abs(u - tu)) + np.max(np.abs(v - tv)))


def close(a: float, b: float, tol: float = ROUNDING) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def replay(p, n: int, dt: float, u0: float, v0: float, boundary, h, *, on_step=None):
    """Backward-Euler diffusion with explicit reaction, h on the first equation.

    ``boundary`` is (cu_left, cu_right, cv_left, cv_right), each a series of
    length N; ``h`` is (N, n).  ``on_step(k, u, v)`` sees the state after
    step k.  Returns the terminal state.
    """
    _, dx = nodes(p, n)
    cu_l, cu_r, cv_l, cv_r = boundary
    r_u = dt * p["d1"] / dx**2
    r_v = dt * p["d2"] / dx**2

    def tridiag(r):
        ab = np.empty((3, n))
        ab[0] = -r
        ab[1] = 1.0 + 2.0 * r
        ab[2] = -r
        return ab

    ab_u, ab_v = tridiag(r_u), tridiag(r_v)
    u = np.full(n, u0)
    v = np.full(n, v0)
    for k in range(len(cu_l)):
        rhs_u = u + dt * (u * (p["a1"] - p["b1"] * u - p["c1"] * v) + h[k] * u)
        rhs_v = v + dt * v * (p["a2"] - p["b2"] * u - p["c2"] * v)
        rhs_u[0] += r_u * cu_l[k]
        rhs_u[-1] += r_u * cu_r[k]
        rhs_v[0] += r_v * cv_l[k]
        rhs_v[-1] += r_v * cv_r[k]
        u = solve_banded((1, 1), ab_u, rhs_u)
        v = solve_banded((1, 1), ab_v, rhs_v)
        if on_step is not None:
            on_step(k + 1, u, v)
    return u, v


def check_control_box(fails: Failures, p, x, cb, h, h_box: float) -> None:
    for name, cap in (("cu_left", p["u_cap"]), ("cu_right", p["u_cap"]),
                      ("cv_left", p["v_cap"]), ("cv_right", p["v_cap"])):
        series = cb[name]
        fails.expect(np.all((series >= 0.0) & (series <= cap)),
                     f"{name} leaves [0, {cap}]: range [{float(series.min())!r}, {float(series.max())!r}]")
    if h.size:
        fails.expect(np.max(np.abs(h)) <= h_box, f"|h| exceeds h_box={h_box}: {float(np.max(np.abs(h)))!r}")
        outside = (x < p["omega_lo"]) | (x > p["omega_hi"])
        fails.expect(np.all(h[:, outside] == 0.0), "h is nonzero outside omega")


def read_h(path: Path, n: int, x: np.ndarray, dt: float, first_step: int) -> tuple[np.ndarray, list[str]]:
    """control_h.csv as an (N, n) array, with its layout checked."""
    ch = read_csv(path)
    problems = []
    rows = ch["h"].shape[0]
    if rows % n:
        return np.empty((0, n)), [f"{path.name}: {rows} rows is not a multiple of n={n}"]
    steps = rows // n
    t = ch["t"].reshape(steps, n)
    if not np.array_equal(ch["x"].reshape(steps, n), np.tile(x, (steps, 1))):
        problems.append(f"{path.name}: x column does not repeat the grid nodes")
    expected_t = dt * np.arange(first_step, first_step + steps)
    if not np.allclose(t, expected_t[:, None], rtol=0.0, atol=1e-9 * max(1.0, dt * steps)):
        problems.append(f"{path.name}: t column is not the step times")
    return ch["h"].reshape(steps, n), problems


def check_target(fails: Failures, p, out: Path, n: int):
    """target.csv: the grid, zero-Dirichlet steady residual, positivity."""
    x, dx = nodes(p, n)
    tgt = read_csv(out / "target.csv")
    fails.expect(np.allclose(tgt["x"], x, rtol=0, atol=1e-12), "target.csv: x is not the grid")
    res = steady_residual(p, tgt["u"], tgt["v"], 0.0, 0.0, dx)
    fails.expect(res <= STEADY_RESIDUAL_MAX, f"target.csv: steady residual {res:.3e}")
    fails.expect(np.all(tgt["u"] > 0) and np.all(tgt["v"] > 0), "target.csv: not positive")
    return tgt["u"], tgt["v"]


# --- one function per preset ------------------------------------------------


def check_regime_report(cfg, out: Path, summary) -> Failures:
    fails = Failures()
    values, _ = summary
    p = params(cfg)
    n = int(cfg["grid"]["n"])
    _, dx = nodes(p, n)
    closed = 2.0 / dx**2 * (1.0 - math.cos(math.pi * dx / p["L"]))
    lam = number(values["lambda1_discrete"])
    fails.expect(abs(lam - closed) <= 1e-10 * closed,
                 f"lambda1_discrete {lam!r} against 2/dx^2 (1 - cos(pi dx/L)) = {closed!r}")
    analytic = math.pi**2 / p["L"] ** 2
    fails.expect(close(number(values["lambda1_analytic"]), analytic, 1e-15),
                 f"lambda1_analytic {values['lambda1_analytic']} against pi^2/L^2")
    lo, hi = (number(s) for s in values["sigma_window"].strip("()").split(","))
    fails.expect(close(lo, -p["a1"], 1e-15) and close(hi, analytic * p["d1"] - p["a1"], 1e-15),
                 f"sigma_window {values['sigma_window']} against (-a1, lambda1 d1 - a1)")
    return fails


def check_uniqueness_probe(cfg, out: Path, summary) -> Failures:
    fails = Failures()
    values, lines = summary
    p = params(cfg)
    sec = cfg["uniqueness_probe"]
    n = int(cfg["grid"]["n"])
    _, dx = nodes(p, n)
    n_starts = int(values["n_starts"])
    n_diverged = int(values["n_diverged"])
    state_lines = [ln for ln in lines if re.match(r"state_\d+: ", ln)]
    hits = [int(re.search(r"hits=(\d+)", ln).group(1)) for ln in state_lines]
    fails.expect(n_starts == int(sec["n_starts"]), f"n_starts {n_starts} against config")
    fails.expect(sum(hits) + n_diverged == n_starts,
                 f"hits {sum(hits)} + n_diverged {n_diverged} != n_starts {n_starts}")
    fails.expect(int(values["n_distinct"]) == len(state_lines), "n_distinct against state lines")
    files = sorted(out.glob("state_*.csv"))
    fails.expect(len(files) == len(state_lines), f"{len(files)} state files, {len(state_lines)} states")
    states = []
    for i in range(len(state_lines)):
        st = read_csv(out / f"state_{i}.csv")
        res = steady_residual(p, st["u"], st["v"], float(sec["u_bc"]), float(sec["v_bc"]), dx,
                              float(sec["sigma"]))
        fails.expect(res <= STEADY_RESIDUAL_MAX, f"state_{i}.csv: steady residual {res:.3e}")
        states.append((st["u"], st["v"]))
    for i in range(len(states)):
        for j in range(i):
            gap = max(np.max(np.abs(states[i][0] - states[j][0])) / p["u_cap"],
                      np.max(np.abs(states[i][1] - states[j][1])) / p["v_cap"])
            fails.expect(gap >= 1e-6, f"state_{i} and state_{j} are the same state")
    return fails


def _snapshots(traj):
    """trajectory.csv as (times, u rows, v rows)."""
    t = traj["t"]
    times = np.unique(t)
    n = t.shape[0] // times.shape[0]
    return times, traj["u"].reshape(-1, n), traj["v"].reshape(-1, n)


def check_stabilize(cfg, out: Path, summary) -> Failures:
    fails = Failures()
    values, _ = summary
    p = params(cfg)
    sec = cfg["stabilize"]
    n = int(cfg["grid"]["n"])
    dt = float(cfg["time"]["dt"])
    eps = float(sec["eps"])
    _, dx = nodes(p, n)
    lam = 2.0 / dx**2 * (1.0 - math.cos(math.pi * dx / p["L"]))
    # v survives: u is damped by sigma when diffusion alone cannot remove it
    fails.expect(sec["target"] == "v_survives", "only the v_survives target is checked")
    sigma = 0.0 if lam * p["d1"] > p["a1"] else 0.5 * (lam * p["d1"] - 2.0 * p["a1"])
    got = number(values["sigma"])
    fails.expect(close(got, sigma, 1e-12), f"sigma {got!r} against {sigma!r}")
    fails.expect(-p["a1"] < got < lam * p["d1"] - p["a1"], f"sigma {got!r} outside its window")

    times, U, V = _snapshots(read_csv(out / "trajectory.csv"))
    dist = np.max(np.abs(U), axis=1) + np.max(np.abs(V - p["v_cap"]), axis=1)
    t1 = number(values["T1"])
    fails.expect(close(times[-1], t1, 1e-12), f"last snapshot t={times[-1]!r}, T1={t1!r}")
    fails.expect(dist[-1] <= eps, f"end state {dist[-1]:.3e} from (0, a2/c2), eps={eps}")
    fails.expect(np.all(dist[:-1] > eps), "an earlier snapshot was already within eps")
    fails.expect(close(t1 / dt, round(t1 / dt), 1e-9), f"T1={t1!r} is not a whole number of steps")

    con = read_csv(out / "constraints.csv")
    ceiling = p["a1"] / p["b1"]  # sigma <= 0 leaves the u ceiling unchanged
    worst = float(max(0.0, np.max(-con["min_u"]), np.max(con["max_u"] - ceiling),
                      np.max(-con["min_v"]), np.max(con["max_v"] - p["v_cap"])))
    fails.expect(worst == number(values["max_violation"]),
                 f"constraints.csv worst violation {worst!r}, summary {values['max_violation']}")
    fails.expect(np.isclose(con["t"][-1], t1, rtol=1e-12), "constraints.csv does not end at T1")
    return fails


def check_barrier_cross(cfg, out: Path, summary) -> Failures:
    fails = Failures()
    values, _ = summary
    p = params(cfg)
    n = int(cfg["grid"]["n"])
    sec = cfg["barrier_cross"]
    _, dx = nodes(p, n)
    bar = read_csv(out / "barrier.csv")
    res = steady_residual(p, bar["u"], bar["v"], p["u_cap"], 0.0, dx)
    fails.expect(res <= STEADY_RESIDUAL_MAX, f"barrier.csv: steady residual {res:.3e}")
    fails.expect(np.max(bar["v"]) > 0.05 * p["v_cap"], "barrier.csv: v hump is missing")

    times, U, V = _snapshots(read_csv(out / "blocked_traj.csv"))
    to_target = np.max(np.abs(U - p["u_cap"]), axis=1) + np.max(np.abs(V), axis=1)
    to_barrier = (np.max(np.abs(U[-1] - bar["u"])) + np.max(np.abs(V[-1] - bar["v"])))
    fails.expect(close(times[-1], float(sec["t_blocked"]), 1e-12), "blocked run ends early")
    fails.expect(np.all(to_target > 0.05), "blocked run came within 0.05 of (a1/b1, 0)")
    fails.expect(close(to_target[-1], number(values["blocked_distance_to_target"])),
                 "blocked_distance_to_target against blocked_traj.csv")
    fails.expect(to_barrier < 1e-3, f"blocked run is {to_barrier:.3e} from the barrier")
    fails.expect(close(to_barrier, number(values["blocked_distance_to_barrier"])),
                 "blocked_distance_to_barrier against the CSVs")

    times, U, V = _snapshots(read_csv(out / "crossed_traj.csv"))
    sup_v = float(np.max(np.abs(V[-1])))
    fails.expect(close(times[-1], float(sec["t_crossed"]), 1e-12), "crossed run ends early")
    fails.expect(sup_v < 1e-2, f"crossed run keeps sup|v| = {sup_v:.3e}")
    fails.expect(sup_v == number(values["crossed_sup_v"]), "crossed_sup_v against crossed_traj.csv")
    return fails


def check_two_phase(cfg, out: Path, summary) -> Failures:
    fails = Failures()
    values, _ = summary
    p = params(cfg)
    sec = cfg["two_phase"]
    n = int(cfg["grid"]["n"])
    dt = float(cfg["time"]["dt"])
    x, _ = nodes(p, n)
    eps, h_box, tol = float(sec["eps"]), float(sec["h_box"]), float(sec["exact_tol"])
    tu, tv = check_target(fails, p, out, n)

    cb = read_csv(out / "control_boundary.csv")
    n_total = cb["t"].shape[0]
    t1 = number(values["T1"])
    n1 = int(round(t1 / dt))
    fails.expect(n_total == n1 + int(round(float(sec["t_tilde"]) / dt)),
                 f"control_boundary.csv has {n_total} rows for T1={t1!r}")
    fails.expect(np.array_equal(cb["phase"], np.where(np.arange(n_total) < n1, 1.0, 2.0)),
                 "phase column does not switch at T1")
    h2, problems = read_h(out / "control_h.csv", n, x, dt, n1)
    fails.extend(problems)
    h = np.vstack([np.zeros((n1, n)), h2])
    if not fails.expect(h.shape[0] == n_total, "control_h.csv does not cover phase 2"):
        return fails
    check_control_box(fails, p, x, cb, h, h_box)
    fails.expect(np.all(h[:n1] == 0.0), "h is nonzero while coasting")
    fails.expect(float(np.max(np.abs(h))) == number(values["h_sup"]), "h_sup against control_h.csv")

    coast = []
    def watch(k, u, v):
        if k in (n1 - 1, n1):
            coast.append(sup_distance(u, v, tu, tv))

    boundary = [cb[c] for c in ("cu_left", "cu_right", "cv_left", "cv_right")]
    u, v = replay(p, n, dt, float(sec["u0"]), float(sec["v0"]), boundary, h, on_step=watch)
    dist = sup_distance(u, v, tu, tv)
    reported = number(values["terminal_distance"])
    fails.expect(dist <= tol, f"replayed terminal distance {dist:.3e} above exact_tol={tol}")
    fails.expect(close(dist, reported), f"replayed terminal distance {dist!r}, reported {reported!r}")
    fails.expect(len(coast) == 2 and coast[0] > eps >= coast[1],
                 f"coast does not first reach eps={eps} at T1: {coast}")
    _, U, V = _snapshots(read_csv(out / "trajectory.csv"))
    fails.expect(np.allclose(U[-1], u, rtol=0, atol=1e-9) and np.allclose(V[-1], v, rtol=0, atol=1e-9),
                 "trajectory.csv end state against the replay")
    return fails


def _bisection(fails: Failures, sec, values, lines) -> float | None:
    """Replays the bisection from its log; returns the final feasible horizon."""
    probes = []
    for ln in lines:
        m = re.fullmatch(r"probe T=(\S+) feasible=(True|False)", ln)
        if m:
            probes.append((float(m.group(1)), m.group(2) == "True"))
    lo, hi = float(sec["t_lo"]), float(sec["t_hi"])
    tol = float(sec["bisect_tol"])
    if not fails.expect(len(probes) >= 2 and probes[0] == (lo, False) and probes[1] == (hi, True),
                        f"bracket probes {probes[:2]} against t_lo={lo}, t_hi={hi}"):
        return None
    for T, ok in probes[2:]:
        fails.expect(hi - lo > tol, f"probe at T={T!r} after the bracket was narrow enough")
        fails.expect(T == 0.5 * (lo + hi), f"probe at T={T!r} is not the bracket midpoint")
        if ok:
            hi = T
        else:
            lo = T
    fails.expect(hi - lo <= tol, f"final bracket [{lo!r}, {hi!r}] wider than bisect_tol={tol}")
    feasible = [T for T, ok in probes if ok]
    infeasible = [T for T, ok in probes if not ok]
    fails.expect(min(feasible) > max(infeasible), "a feasible probe lies below an infeasible one")
    t_star = number(values["T_star"])
    fails.expect(t_star == 0.5 * (lo + hi), f"T_star {t_star!r} is not the bracket midpoint")
    return hi


def check_min_time(cfg, out: Path, summary) -> Failures:
    fails = Failures()
    values, lines = summary
    p = params(cfg)
    sec = cfg["min_time"]
    n = int(cfg["grid"]["n"])
    dt = float(cfg["time"]["dt"])
    tol = float(sec["tol"])
    x, _ = nodes(p, n)
    tu, tv = check_target(fails, p, out, n)
    fails.expect(values["use_h"] == str(sec["use_h"] == "true"), "use_h against config")

    hi = _bisection(fails, sec, values, lines)
    cb = read_csv(out / "control_boundary.csv")
    steps = cb["t"].shape[0]
    if hi is not None:
        fails.expect(steps == int(round(hi / dt)),
                     f"control_boundary.csv has {steps} rows for the feasible horizon {hi!r}")
    fails.expect(np.allclose(cb["t"], dt * np.arange(steps), rtol=0, atol=1e-9 * max(1.0, dt * steps)),
                 "control_boundary.csv: t is not the step times")
    h, problems = read_h(out / "control_h.csv", n, x, dt, 0)
    fails.extend(problems)
    if not fails.expect(h.shape[0] == steps, "control_h.csv and control_boundary.csv differ in steps"):
        return fails
    check_control_box(fails, p, x, cb, h, 1.0)
    if sec["use_h"] != "true":
        fails.expect(np.all(h == 0.0), "h is nonzero with use_h = false")

    boundary = [cb[c] for c in ("cu_left", "cu_right", "cv_left", "cv_right")]
    u, v = replay(p, n, dt, float(sec["u0"]), float(sec["v0"]), boundary, h)
    dist = sup_distance(u, v, tu, tv)
    reported = number(values["terminal_distance"])
    fails.expect(dist <= tol, f"replayed terminal distance {dist:.3e} above tol={tol}")
    fails.expect(close(dist, reported), f"replayed terminal distance {dist!r}, reported {reported!r}")

    log = read_csv(out / "convergence_log.csv")
    fails.expect(log["iter"].shape[0] == int(values["iterations"]) + 1,
                 "convergence_log.csv rows against iterations")
    fails.expect(log["terminal_distance"][-1] == reported, "convergence_log.csv ends off the result")
    fails.expect(np.all(np.diff(log["objective"]) < 0), "objective history is not decreasing")
    return fails


CHECKS = {
    "regime_report": check_regime_report,
    "uniqueness_probe": check_uniqueness_probe,
    "stabilize": check_stabilize,
    "barrier_cross": check_barrier_cross,
    "two_phase": check_two_phase,
    "min_time": check_min_time,
}


def check_scenario(preset: str, cfg, out: Path) -> Failures:
    """Run the preset's checks; unreadable or missing files count as failures."""
    try:
        summary = read_summary(out / "summary.txt")
        return CHECKS[preset](cfg, out, summary)
    except (OSError, ValueError, KeyError, AttributeError, IndexError) as err:
        return Failures([f"{type(err).__name__}: {err}"])
