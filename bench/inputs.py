"""Seeded inputs for the three benchmark workloads.

Both the parent (which checks outputs) and the worker (which runs
them) build the op list here from the same seed, so they agree without
passing data. This module imports numpy only, never qpendulum: the
reference tables arrive as a plain mapping.

An op is a JSON-able dict with a ``kind`` (how the worker runs it and
the oracle checks it) and a ``label`` (how a failure is reported).
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("sweep", "boundaries", "observables")

FAMILIES = ("phi+", "phi-", "xi", "eta", "psi+", "psi-")
LEVELS = tuple(range(1, 9))

SWEEP_N_MAX = 8
SWEEP_POINTS = 1000
SWEEP_L_MAX = 55.0

REGIONS_N_MAX = 12
SCHEDULE_POINTS = 400

STATE_BARRIERS = 40
STATE_L_MAX = 30.0
DENSITY_STATES = 4
TRAJECTORY_POINTS = 5000


def make_ops(workload: str, seed: int, ref: dict) -> list[dict]:
    """The ops of one pass, in the order the worker issues them."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return {"sweep": _sweep, "boundaries": _boundaries,
            "observables": _observables}[workload](rng, ref)


def _floats(values) -> list[float]:
    return [float(v) for v in values]


def _sweep(rng, ref) -> list[dict]:
    grid = np.unique(rng.uniform(0.0, SWEEP_L_MAX, SWEEP_POINTS))
    if len(grid) != SWEEP_POINTS:
        raise ValueError("sweep grid drew a repeated barrier value")
    return [{"kind": "sweep", "label": f"sweep n<={SWEEP_N_MAX} x {SWEEP_POINTS} l",
             "n_max": SWEEP_N_MAX, "grid": _floats(grid)}]


def _boundaries(rng, ref) -> list[dict]:
    ops = []
    # The `regions` search: for level n the splitting boundary is the
    # rotor pair n and the merging boundary is the well pair n - 1.
    for n in range(1, REGIONS_N_MAX + 1):
        ops.append({"kind": "find_boundary", "label": f"splitting n={n}",
                    "pairing": "rotor", "pair": n,
                    "eps": ref["CALIBRATED_EPS_ROTOR"],
                    "reference": ref["SPLITTING_POINTS"].get(n)})
        ops.append({"kind": "find_boundary", "label": f"merging n={n}",
                    "pairing": "well", "pair": n - 1,
                    "eps": ref["CALIBRATED_EPS_WELL"],
                    "reference": ref["MERGING_POINTS"].get(n)})
    ops.append({"kind": "calibrate", "label": "calibrate splitting table",
                "pairing": "rotor", "table": "SPLITTING_POINTS"})
    ops.append({"kind": "calibrate", "label": "calibrate merging table",
                "pairing": "well", "table": "MERGING_POINTS"})
    ops.append({"kind": "schedule", "label": "modulation schedule levels 1-8",
                "l_c": float(rng.uniform(15.0, 35.0)),
                "delta_l": float(rng.uniform(5.0, 15.0)),
                "omega": float(rng.uniform(0.5, 2.0)),
                "t_grid": _floats(np.linspace(0.0, 2.0 * math.pi, SCHEDULE_POINTS)),
                "levels": list(LEVELS),
                "eps_rotor": ref["CALIBRATED_EPS_ROTOR"],
                "eps_well": ref["CALIBRATED_EPS_WELL"]})
    return ops


def _observables(rng, ref) -> list[dict]:
    ops = []
    for l in np.sort(rng.uniform(0.0, STATE_L_MAX, STATE_BARRIERS)):
        for family in FAMILIES:
            for n in LEVELS:
                ops.append({"kind": "state", "label": f"{family} n={n} l={l:.6g}",
                            "family": family, "n": n, "l": float(l)})
    levels = rng.choice(LEVELS, size=DENSITY_STATES, replace=False)
    for n, l in zip(levels, rng.uniform(1.0, STATE_L_MAX, DENSITY_STATES)):
        ops.append({"kind": "density", "label": f"density xi n={n} l={l:.6g}",
                    "family": "xi", "n": int(n), "l": float(l)})
    for n in LEVELS:
        l_c = float(ref["OBSERVABLE_EVAL_POINTS"][n])
        for src in ("phi+", "phi-"):
            for dst in ("xi", "eta"):
                ops.append({"kind": "jump", "label": f"jump n={n} {src}->{dst}",
                            "n": n, "from": src, "to": dst, "l_c": l_c})
    for branch, (lo, hi) in (("rotation", (1.5, 4.0)), ("libration", (-0.6, 0.8))):
        U = float(rng.uniform(0.5, 2.0))
        t_max = float(rng.uniform(10.0, 30.0))
        ops.append({"kind": "trajectory", "label": f"trajectory {branch}",
                    "omega_prime": float(rng.uniform(0.5, 2.0)), "U": U,
                    "E": U * float(rng.uniform(lo, hi)),
                    "t_grid": _floats(np.linspace(0.0, t_max, TRAJECTORY_POINTS))})
    return ops
