"""Run one op through qpendulum's public functions (worker side only).

Every call goes through a module attribute (``qp.find_boundary``,
``report.write_csv``) looked up at call time, so the tracer's wrappers
on those attributes see the benchmark's own calls too.
"""

from __future__ import annotations

from pathlib import Path

import qpendulum as qp
from qpendulum import reference, report, uncertainty

SWEEP_HEADER = ["class", "n", "l", "value"]


def call(op: dict, csv_path: Path):
    """Issue the op's user-level call(s) and return the raw result."""
    kind = op["kind"]
    if kind == "sweep":
        rows = qp.sweep_characteristics(op["n_max"], op["grid"])
        report.write_csv(csv_path, SWEEP_HEADER, rows)
        return str(csv_path)
    if kind == "find_boundary":
        return qp.find_boundary(op["pair"], qp.PairingKind(op["pairing"]),
                                op["eps"], qp.GapMeasure.RELATIVE)
    if kind == "calibrate":
        return qp.calibrate_epsilon(getattr(reference, op["table"]),
                                    qp.PairingKind(op["pairing"]))
    if kind == "schedule":
        return qp.modulation_schedule(op["l_c"], op["delta_l"], op["omega"],
                                      op["t_grid"], op["levels"],
                                      op["eps_rotor"], op["eps_well"])
    if kind == "state":
        state = qp.build_state(qp.StateSpec(qp.StateFamily(op["family"]),
                                            op["n"], op["l"]))
        return (qp.velocity_expect(state), qp.velocity_sq_expect(state),
                qp.angular_moments(state))
    if kind == "density":
        state = qp.build_state(qp.StateSpec(qp.StateFamily(op["family"]),
                                            op["n"], op["l"]))
        return (qp.density_maxima(state),
                uncertainty.local_variance_inequality(state))
    if kind == "jump":
        return qp.jump_at_boundary(op["n"], qp.StateFamily(op["from"]),
                                   qp.StateFamily(op["to"]), op["l_c"])
    if kind == "trajectory":
        params = qp.ClassicalParams(op["omega_prime"], op["U"], op["E"])
        return qp.trajectory(params, op["t_grid"])
    raise ValueError(f"unknown op kind {kind!r}")


def to_json(kind: str, raw):
    """Plain-JSON form of a result, made outside the timed call."""
    if kind == "sweep":
        return {"csv": raw}
    if kind == "find_boundary":
        return {"l_c": float(raw.l_c), "bracket": [float(b) for b in raw.bracket]}
    if kind == "calibrate":
        return {"epsilon": float(raw.epsilon),
                "computed": {str(n): float(v) for n, v in raw.computed.items()},
                "residuals": {str(n): float(v) for n, v in raw.residuals.items()},
                "per_row": {str(n): float(v) for n, v in raw.per_row_epsilon.items()},
                "row_tolerance": float(raw.row_tolerance)}
    if kind == "schedule":
        return [[float(p.t), float(p.l),
                 [p.regions[n].value for n in sorted(p.regions)], bool(p.crossing)]
                for p in raw]
    if kind == "state":
        v, v2, m = raw
        return [float(x) for x in (v, v2, m.exp_sin, m.exp_cos, m.exp_sin2,
                                    m.exp_cos2, m.exp_Lz, m.exp_Lz2, m.ur_a, m.ur_b)]
    if kind == "density":
        maxima, inequalities = raw
        return {"maxima": [float(x) for x in maxima],
                "lvi": [[float(x.phi_max), float(x.window[0]), float(x.window[1]),
                         float(x.phi2), float(x.lhs), float(x.rhs), bool(x.holds)]
                        for x in inequalities]}
    if kind == "jump":
        return [float(raw.delta_v), float(raw.delta_v2),
                float(raw.fluct_radicand), bool(raw.fluct_defined)]
    if kind == "trajectory":
        return {"t": raw[:, 0].tolist(), "dI": raw[:, 1].tolist()}
    raise ValueError(f"unknown op kind {kind!r}")
