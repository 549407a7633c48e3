"""The benchmark's workloads: named lists of lvctl scenarios, as configs.

Every config spells out all of its values instead of leaning on the
preset defaults, so a later change to a default changes lvctl's behaviour
but not what this benchmark runs, and the checks know every parameter
without importing lvcontrol.  The values are the preset defaults at the
time the benchmark was written.

The seed reaches lvctl as ``--seed``; only ``uniqueness_probe`` draws from
it (its random Newton starts).  The minimum-time inputs do not depend on
the seed on purpose: a seed-dependent initial state would move probes
across their feasibility threshold, which changes the work done, not its
speed.
"""

from __future__ import annotations

from dataclasses import dataclass

BARRIER = {"a1": "1.0", "a2": "1.0", "b1": "1.0", "b2": "1.0",
           "c1": "0.8", "c2": "0.7", "d1": "0.1", "d2": "0.1", "L": "10.0"}
STEERING = {"a1": "10.0", "a2": "10.0", "b1": "1.8", "b2": "1.0",
            "c1": "0.2", "c2": "1.4", "d1": "1.0", "d2": "1.0", "L": "1.0"}


@dataclass(frozen=True)
class Scenario:
    preset: str
    sections: dict  # section -> key -> value, all strings

    def text(self) -> str:
        lines = ["[preset]", f"name = {self.preset}"]
        for section, values in self.sections.items():
            lines += ["", f"[{section}]"] + [f"{k} = {v}" for k, v in values.items()]
        return "\n".join(lines) + "\n"


PRESETS = [
    Scenario("regime_report", {
        "params": BARRIER, "grid": {"n": "199"},
    }),
    Scenario("uniqueness_probe", {
        "params": BARRIER, "grid": {"n": "199"},
        "uniqueness_probe": {"u_bc": "1.0", "v_bc": "0.0", "sigma": "0.0", "n_starts": "20"},
    }),
    Scenario("stabilize", {
        "params": BARRIER, "grid": {"n": "199"}, "time": {"dt": "0.01"},
        "stabilize": {"target": "v_survives", "eps": "1e-2", "t_cap": "500",
                      "u0": "0.5", "v0": "0.5"},
    }),
    Scenario("barrier_cross", {
        "params": BARRIER, "grid": {"n": "199"}, "time": {"dt": "0.01"},
        "barrier_cross": {"t_blocked": "200", "t_crossed": "300", "hbar": "-0.8",
                          "u0": "0.5", "v0": "0.5"},
    }),
    Scenario("two_phase", {
        "params": STEERING, "grid": {"n": "99"}, "time": {"dt": "0.01"},
        "two_phase": {"eps": "0.05", "t_tilde": "6.0", "h_box": "1.0", "exact_tol": "1e-2",
                      "t_cap": "1000", "u0": "0.2", "v0": "0.3"},
    }),
]


def _min_time(use_h: bool, n: str, dt: str, t_lo: str, t_hi: str, bisect_tol: str) -> Scenario:
    return Scenario("min_time", {
        "params": STEERING, "grid": {"n": n}, "time": {"dt": dt},
        "min_time": {"use_h": "true" if use_h else "false", "t_lo": t_lo, "t_hi": t_hi,
                     "bisect_tol": bisect_tol, "tol": "1e-2", "u0": "0.2", "v0": "0.3"},
    })


WORKLOADS = {
    "presets": PRESETS,
    "min_time_h": [_min_time(True, "49", "0.08", "2.0", "4.8", "1.5")],
    "min_time_boundary": [_min_time(False, "99", "0.08", "12", "32", "5.5")],
}
