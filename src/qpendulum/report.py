"""Deterministic table/figure regeneration for the report command.

Every data file carries computed values alongside the embedded
reference values and their residuals, so reproduction quality is part
of the artifact rather than a hidden test detail. No timestamps enter
the data files; reruns with identical settings are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from . import reference as ref
from .errors import BoundaryNotFoundError
from .mathieu import TRUNCATION_CAP
from .states import StateFamily, StateSpec, build_state, density, jump_at_boundary
from .symmetry import (
    ROW_TOLERANCE,
    PairingKind,
    level_boundary,
    sweep_characteristics,
)
from .uncertainty import angular_moments

DATA_FILES = (
    "table1.csv", "table2.csv", "table3.csv", "table4.csv",
    "table5.csv", "table6.csv",
    "fig1_characteristics.csv", "fig2_delta_v.csv",
    "fig3_delta_v2.csv", "fig4_densities.csv",
)

# Residual gates applied by the report command (absolute, on the cells
# each table actually emits).
GATES = {
    "table1": 0.1,
    "table2": 0.1,
    "table3": 5e-3,
    "table4": 2e-2,
    "table5": 1e-2,   # relative for |ref| > 1; see _ur_residual
    "table6": 1e-2,
}


@dataclass
class ReportBundle:
    tables: dict = field(default_factory=dict)   # name -> list of rows
    figures: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)
    max_residuals: dict = field(default_factory=dict)
    gate_failures: list = field(default_factory=list)


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _boundary_table(pairing: PairingKind, reference_table: dict,
                    epsilon: float) -> list:
    rows = []
    for n in ref.LEVELS:
        target = reference_table[n]
        try:
            l_c = level_boundary(n, pairing, epsilon, target).l_c
        except BoundaryNotFoundError:
            rows.append((n, "not-found", target, "not-found"))
            continue
        rows.append((n, l_c, target, abs(l_c - target)))
    return rows


def observable_tables(points: dict) -> tuple[list, list, list]:
    """Tables 3 and 4 plus the fluctuation rows at the given barriers.

    Table cells read (from - to), the orientation of the reference
    columns; :class:`ObservableJump` itself keeps (to - from).
    """
    t3, t4, fluct = [], [], []
    for n in ref.LEVELS:
        l_c = points[n]
        jumps = {}
        for fam, tag in ((StateFamily.PHI_PLUS, "p"), (StateFamily.PHI_MINUS, "m")):
            for to, totag in ((StateFamily.XI, "xi"), (StateFamily.ETA, "eta")):
                jumps[tag + totag] = jump_at_boundary(n, fam, to, l_c)
        cols = ("pxi", "peta", "mxi", "meta")
        dv = [-jumps[k].delta_v for k in cols]
        dv2 = [-jumps[k].delta_v2 for k in cols]
        rv = ref.DELTA_V[n]
        rv2 = ref.DELTA_V2[n]
        res_v = max(abs(c - r) for c, r in zip(dv, rv))
        res_v2 = max(abs(c - r) for c, r in zip(dv2, rv2))
        t3.append((n, l_c, *dv, *rv, res_v))
        t4.append((n, l_c, *dv2, *rv2, res_v2))
        j = jumps["pxi"]
        fluct.append((n, l_c, j.fluct_radicand, j.fluct_defined,
                      j.fluctuation if j.fluct_defined else ""))
    return t3, t4, fluct


def _ur_residual(computed: float, target: float) -> float:
    scale = max(abs(target), 1.0)
    return abs(computed - target) / scale


def uncertainty_tables(points: dict) -> tuple[list, list]:
    """Tables 5 and 6 (ur_a, ur_b) at the given barriers."""
    t5, t6 = [], []
    fams = (StateFamily.PHI_PLUS, StateFamily.PHI_MINUS,
            StateFamily.XI, StateFamily.ETA)
    for n in ref.LEVELS:
        l_c = points[n]
        reports = [angular_moments(build_state(StateSpec(f, n, l_c)))
                   for f in fams]
        ua = [r.ur_a for r in reports]
        ub = [r.ur_b for r in reports]
        ra, rb = ref.UR_A[n], ref.UR_B[n]
        t5.append((n, l_c, *ua, *ra,
                   max(_ur_residual(c, r) for c, r in zip(ua, ra))))
        t6.append((n, l_c, *ub, *rb,
                   max(_ur_residual(c, r) for c, r in zip(ub, rb))))
    return t5, t6


def build_bundle(eval_points: dict | None = None,
                 characteristics_l_max: float = 55.0,
                 characteristics_steps: int = 111,
                 density_points: int = 256) -> ReportBundle:
    """Compute every table and figure dataset in memory.

    Every solve runs at the default truncation cap, which the metadata
    records.
    """
    points = dict(eval_points or ref.OBSERVABLE_EVAL_POINTS)
    bundle = ReportBundle()

    bundle.tables["table1"] = _boundary_table(
        PairingKind.ROTOR, ref.SPLITTING_POINTS, ref.CALIBRATED_EPS_ROTOR)
    bundle.tables["table2"] = _boundary_table(
        PairingKind.WELL, ref.MERGING_POINTS, ref.CALIBRATED_EPS_WELL)
    t3, t4, fluct = observable_tables(points)
    bundle.tables["table3"] = t3
    bundle.tables["table4"] = t4
    bundle.tables["fluctuations"] = fluct
    t5, t6 = uncertainty_tables(points)
    bundle.tables["table5"] = t5
    bundle.tables["table6"] = t6

    l_grid = np.linspace(0.0, characteristics_l_max, characteristics_steps)
    bundle.figures["fig1_characteristics"] = sweep_characteristics(8, l_grid)
    bundle.figures["fig2_delta_v"] = [
        (n, points[n], row[2], row[3]) for n, row in zip(ref.LEVELS, t3)
    ]
    bundle.figures["fig3_delta_v2"] = [
        (n, points[n], row[2], row[3]) for n, row in zip(ref.LEVELS, t4)
    ]
    dens_rows = []
    phi = np.linspace(0.0, 2.0 * np.pi, density_points, endpoint=False)
    for n in ref.LEVELS:
        state = build_state(StateSpec(StateFamily.PHI_PLUS, n, points[n]))
        for p, d in density(state, phi):
            dens_rows.append((n, float(p), float(d)))
    bundle.figures["fig4_densities"] = dens_rows

    for name in ("table1", "table2"):
        res = [r[3] for r in bundle.tables[name] if isinstance(r[3], float)]
        nf = [r for r in bundle.tables[name] if r[1] == "not-found"]
        bundle.max_residuals[name] = max(res) if res else float("inf")
        if nf:
            bundle.gate_failures.append(f"{name}: {len(nf)} boundary rows not found")
    for name in ("table3", "table4", "table5", "table6"):
        bundle.max_residuals[name] = max(r[-1] for r in bundle.tables[name])
    for name, gate in GATES.items():
        if bundle.max_residuals[name] > gate:
            bundle.gate_failures.append(
                f"{name}: max residual {bundle.max_residuals[name]:.3g} "
                f"exceeds gate {gate:g}")

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
    "fluctuations": ["n", "l_c", "radicand", "defined", "fluctuation"],
    "fig1_characteristics": ["class", "n", "l", "value"],
    "fig2_delta_v": ["n", "l_c", "dv_xi", "dv_eta"],
    "fig3_delta_v2": ["n", "l_c", "dv2_xi", "dv2_eta"],
    "fig4_densities": ["n", "phi", "density"],
}


def write_bundle(bundle: ReportBundle, out_dir: Path) -> list[Path]:
    """Write the bundle to disk; returns the data-file paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, rows in {**bundle.tables, **bundle.figures}.items():
        p = out_dir / f"{name}.csv"
        write_csv(p, HEADERS[name], rows)
        if p.name in DATA_FILES:
            paths.append(p)
    (out_dir / "metadata.json").write_text(
        json.dumps(bundle.metadata, indent=2, sort_keys=True) + "\n")
    lines = ["report summary", "=============="]
    for name in sorted(bundle.max_residuals):
        lines.append(f"{name}: max residual {bundle.max_residuals[name]:.6g} "
                     f"(gate {GATES[name]:g})")
    lines.append("gates: " + ("PASS" if not bundle.gate_failures else "FAIL"))
    lines.extend(f"  {msg}" for msg in bundle.gate_failures)
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n")
    return paths
