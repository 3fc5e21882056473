"""Deterministic table/figure regeneration for the report command.

Every data file carries computed values alongside the embedded
reference values and their residuals, so reproduction quality is part
of the artifact rather than a hidden test detail. No timestamps enter
the data files; reruns with identical settings are byte-identical.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from . import reference as ref
from .mathieu import TRUNCATION_CAP
from .states import (StateFamily, StateSpec, build_state, density, velocity_expect,
                     velocity_sq_expect)
from .symmetry import ROW_TOLERANCE, PairingKind, boundary_table, sweep_characteristics
from .uncertainty import angular_moments

HEADERS = {
    "table1": ["n", "l_split", "reference", "residual"],
    "table2": ["n", "l_merge", "reference", "residual"],
    "table3": ["n", "l_c", "dv_pxi", "dv_peta", "dv_mxi", "dv_meta",
               "ref_pxi", "ref_peta", "ref_mxi", "ref_meta", "residual"],
    "table4": ["n", "l_c", "dv2_pxi", "dv2_peta", "dv2_mxi", "dv2_meta",
               "ref_pxi", "ref_peta", "ref_mxi", "ref_meta", "residual"],
    "table5": ["n", "l_c", "ur_a_phip", "ur_a_phim", "ur_a_xi", "ur_a_eta",
               "ref_phip", "ref_phim", "ref_xi", "ref_eta", "residual"],
    "table6": ["n", "l_c", "ur_b_phip", "ur_b_phim", "ur_b_xi", "ur_b_eta",
               "ref_phip", "ref_phim", "ref_xi", "ref_eta", "residual"],
    "fig1_characteristics": ["class", "n", "l", "value"],
    "fig2_delta_v": ["n", "l_c", "dv_xi", "dv_eta"],
    "fig3_delta_v2": ["n", "l_c", "dv2_xi", "dv2_eta"],
    "fig4_densities": ["n", "phi", "density"],
}

DATA_FILES = tuple(f"{name}.csv" for name in HEADERS)

# Residual gates applied by the report command (absolute, on the cells
# each table actually emits).
GATES = {
    "table1": 0.1,
    "table2": 0.1,
    "table3": 5e-3,
    "table4": 2e-2,
    "table5": 1e-2,   # relative for |ref| > 1; see _residual
    "table6": 1e-2,
}


@dataclass
class ReportBundle:
    data: dict = field(default_factory=dict)   # HEADERS key -> list of rows
    metadata: dict = field(default_factory=dict)
    max_residuals: dict = field(default_factory=dict)
    gate_failures: list = field(default_factory=list)


def format_csv(header, rows) -> str:
    """CSV text with a header line; every cell as str, so a Python float
    is its repr and a NumPy scalar its value. In the first column whose cell
    is one object in the first two rows, if any, a cell that is the object
    above reuses its text, held with % doubled in the row template."""
    rows = list(rows)
    j = next((j for j, pair in enumerate(zip(*rows[:2])) if pair[0] is pair[-1]), None)
    keep = [i for i in range(len(rows[0])) if i != j] if rows else []
    other = (tuple if j is None else operator.itemgetter(*keep) if keep[1:] else
             lambda row: tuple(row[i] for i in keep))
    lines, cells, last = [",".join(header)], ["%s"] * len(header), object()
    line = ",".join(cells)
    for row in rows:
        if j is not None and row[j] is not last:
            cells[j] = str(last := row[j]).replace("%", "%%")
            line = ",".join(cells)
        lines.append(line % other(row))
    return "\n".join(lines) + "\n"


def write_csv(path, header: list[str], rows) -> None:
    Path(path).write_text(format_csv(header, rows))


def _residual(computed: float, target: float, relative: bool) -> float:
    """|computed - target|, divided by max(|target|, 1) if ``relative``."""
    return abs(computed - target) / (max(abs(target), 1.0) if relative else 1.0)


def observable_tables() -> dict[str, list]:
    """Tables 3-6 at ``OBSERVABLE_EVAL_POINTS``, keyed by table name.

    Each level builds phi+, phi-, xi and eta once. Tables 3 and 4 hold
    the jumps of :func:`velocity_expect` and :func:`velocity_sq_expect`
    over phi+ -> xi, phi+ -> eta, phi- -> xi and phi- -> eta as
    (from - to), the orientation of the reference columns; tables 5 and
    6 hold the ur_a and ur_b of the four states' :func:`angular_moments`.
    """
    tables = {"table3": [], "table4": [], "table5": [], "table6": []}
    for n in ref.LEVELS:
        l_c = ref.OBSERVABLE_EVAL_POINTS[n]
        phip, phim, xi, eta = states = [
            build_state(StateSpec(f, n, l_c)) for f in (
                StateFamily.PHI_PLUS, StateFamily.PHI_MINUS, StateFamily.XI,
                StateFamily.ETA)]
        reports = [angular_moments(state) for state in states]
        pairs = ((phip, xi), (phip, eta), (phim, xi), (phim, eta))
        for name, computed, target, relative in (
            ("table3", [velocity_expect(a) - velocity_expect(b) for a, b in pairs],
             ref.DELTA_V[n], False),
            ("table4", [velocity_sq_expect(a) - velocity_sq_expect(b)
                        for a, b in pairs], ref.DELTA_V2[n], False),
            ("table5", [r.ur_a for r in reports], ref.UR_A[n], True),
            ("table6", [r.ur_b for r in reports], ref.UR_B[n], True),
        ):
            tables[name].append((n, l_c, *computed, *target, max(
                _residual(c, r, relative) for c, r in zip(computed, target))))
    return tables


def build_bundle() -> ReportBundle:
    """Compute every table and figure dataset in memory.

    Tables 3-6 and fig2-fig4 are taken at ``OBSERVABLE_EVAL_POINTS``.
    Every value is that of the first N rows T at the first matrix size N
    whose Sturm count certifies it, doubling the size until one does, at
    most to the fixed truncation cap, which the metadata records.
    """
    points = dict(ref.OBSERVABLE_EVAL_POINTS)
    bundle = ReportBundle()
    data = bundle.data
    for name, pairing, table, eps in (
            ("table1", PairingKind.ROTOR, ref.SPLITTING_POINTS, ref.CALIBRATED_EPS_ROTOR),
            ("table2", PairingKind.WELL, ref.MERGING_POINTS, ref.CALIBRATED_EPS_WELL)):
        data[name] = [(n, "not-found", table[n], "not-found") if b is None else
                      (n, b.l_c, table[n], abs(b.l_c - table[n])) for n, b in
                      boundary_table(ref.LEVELS, pairing, eps, table).items()]
    data.update(observable_tables())
    data["fig1_characteristics"] = sweep_characteristics(
        8, np.linspace(0.0, 55.0, 111))
    # (n, l_c, phi+ -> xi, phi+ -> eta): the first four cells of table3/4
    data["fig2_delta_v"] = [row[:4] for row in data["table3"]]
    data["fig3_delta_v2"] = [row[:4] for row in data["table4"]]
    phi = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    data["fig4_densities"] = [
        (n, float(p), float(d)) for n in ref.LEVELS for p, d in density(
            build_state(StateSpec(StateFamily.PHI_PLUS, n, points[n])), phi)]

    over = []  # reported after every not-found message
    for name, gate in GATES.items():
        found = [row[-1] for row in data[name] if row[-1] != "not-found"]
        if missing := len(data[name]) - len(found):
            bundle.gate_failures.append(f"{name}: {missing} boundary rows not found")
        worst = bundle.max_residuals[name] = max(found, default=float("inf"))
        if worst > gate:
            over.append(f"{name}: max residual {worst:.3g} exceeds gate {gate:g}")
    bundle.gate_failures += over

    bundle.metadata = {
        "tool": "qpendulum",
        "version": __version__,
        "truncation_cap": TRUNCATION_CAP,
        "epsilon_rotor": ref.CALIBRATED_EPS_ROTOR,
        "epsilon_well": ref.CALIBRATED_EPS_WELL,
        "gap_measure": "relative",
        "boundary_fallback": "per-row absolute threshold pinned by the "
                             "reference boundary when the global fit "
                             f"misses by more than {ROW_TOLERANCE:g}",
        "evaluation_points": {str(n): points[n] for n in ref.LEVELS},
        "gates": GATES,
    }
    return bundle


def write_bundle(bundle: ReportBundle, out_dir: Path) -> None:
    """Write the bundle's data files, metadata and summary to ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, rows in bundle.data.items():
        write_csv(out_dir / f"{name}.csv", HEADERS[name], rows)
    (out_dir / "metadata.json").write_text(
        json.dumps(bundle.metadata, indent=2, sort_keys=True) + "\n")
    lines = ["report summary", "=============="]
    for name in sorted(bundle.max_residuals):
        lines.append(f"{name}: max residual {bundle.max_residuals[name]:.6g} "
                     f"(gate {GATES[name]:g})")
    lines.append("gates: " + ("PASS" if not bundle.gate_failures else "FAIL"))
    lines.extend(f"  {msg}" for msg in bundle.gate_failures)
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n")
