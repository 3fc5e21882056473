"""Command-line interface.

Subcommands regenerate the characteristic curves, region boundaries,
velocity-jump and uncertainty tables, densities, classical
trajectories, the torsion mapping, and the full report bundle.

Exit codes: 0 success, 2 validation error, 3 convergence failure,
4 report gate failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import reference as ref
from .classical import ArgConvention, ClassicalParams, trajectory
from .errors import ConvergenceError, DomainError, check_count, check_real
from .report import (
    BOUNDARY_TABLES,
    HEADERS,
    build_bundle,
    format_csv,
    observable_tables,
    write_bundle,
    write_csv,
)
from .states import StateFamily, StateSpec, build_state, density
from .symmetry import (
    REGIONS_N_MAX,
    GapMeasure,
    boundary_table,
    classify_regions,
    sweep_characteristics,
)
from .torsion import TorsionRotor, load_preset, torsion_to_mathieu

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_GATE = 4


def _resolve_out(path: str | None, directory: bool) -> Path | None:
    """``--out`` checked before any work: a directory (made here) or a file."""
    if path is None:
        return None
    out = Path(path)
    if directory:
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise DomainError(f"--out {path}: not a directory ({exc})") from None
    elif out.is_dir() or not out.parent.is_dir():
        raise DomainError(f"--out {path}: not a file in an existing directory")
    return out


def _write(out: Path | None, text: str) -> None:
    if out:
        out.write_text(text)
    else:
        sys.stdout.write(text)


def _emit(out: Path | None, header, rows, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(
            [dict(zip(header, row)) for row in rows], indent=2) + "\n"
    else:
        text = format_csv(header, rows)
    _write(out, text)


def cmd_characteristics(args) -> int:
    check_count(args.steps, 2, "steps")
    grid = np.unique(np.linspace(check_real(args.l_min, "l_min", 0.0, False),
                                 check_real(args.l_max, "l_max", 0.0, False), args.steps))
    rows = sweep_characteristics(args.n_max, grid)
    _emit(args.out, HEADERS["fig1_characteristics"], rows, args.format)
    return EXIT_OK


def cmd_regions(args) -> int:
    """Both boundaries of every level up to n_max, from :func:`boundary_table`.

    With the calibrated thresholds, a tabulated row gets the same
    per-row fallback as the report; ``--epsilon`` searches every row
    with that one relative threshold. A row not found exits with 4.
    """
    if not 1 <= args.n_max <= REGIONS_N_MAX:
        raise DomainError(f"n_max must be in 1..{REGIONS_N_MAX}, got {args.n_max}")
    levels = range(1, args.n_max + 1)
    tables = []
    for pairing, eps, reference in BOUNDARY_TABLES.values():
        if args.epsilon is not None:
            eps, reference = args.epsilon, {}
        tables.append((pairing, eps, boundary_table(levels, pairing, eps, reference)))
    rows = [(n, pairing.value, "not-found", eps, GapMeasure.RELATIVE.value)
            if (b := table[n]) is None else
            (n, pairing.value, b.l_c, b.gap_threshold, b.measure.value)
            for n in levels for pairing, eps, table in tables]
    _emit(args.out, ["n", "pairing", "l_c", "epsilon", "measure"], rows,
          args.format)
    return EXIT_GATE if any(row[2] == "not-found" for row in rows) else EXIT_OK


def cmd_tables(args) -> int:
    """The subcommand's ``tables``, as the report writes them."""
    tables = observable_tables()
    for name in args.tables:
        write_csv(args.out / f"{name}.csv", HEADERS[name], tables[name])
    return EXIT_OK


def cmd_density(args) -> int:
    check_count(args.points, 16, "points")
    state = build_state(StateSpec(StateFamily(args.family), args.n, args.l))
    phi = np.linspace(0.0, 2.0 * np.pi, args.points, endpoint=False)
    rows = [(float(p), float(d)) for p, d in density(state, phi)]
    total = float(np.trapezoid([d for _, d in rows] + [rows[0][1]],
                               dx=2.0 * np.pi / args.points))
    rows.append(("# integral", total))
    _emit(args.out, ["phi", "density"], rows, args.format)
    return EXIT_OK


def cmd_classical(args) -> int:
    params = ClassicalParams(args.omega_prime, args.U, args.E)
    check_count(args.steps, 2, "steps")
    t_grid = np.linspace(0.0, check_real(args.t_max, "t_max", -np.inf, False),
                         args.steps)
    rows = [(float(t), float(v)) for t, v in
            trajectory(params, t_grid, ArgConvention(args.arg_convention))]
    _emit(args.out, ["t", "delta_I"], rows, args.format)
    return EXIT_OK


def cmd_torsion(args) -> int:
    if args.preset:
        rotor = load_preset(args.preset)
    else:
        missing = [k for k in ("I1", "I2", "V0", "n_fold")
                   if getattr(args, k) is None]
        if missing:
            raise DomainError(
                f"provide --preset or all of --I1 --I2 --V0 --n-fold "
                f"(missing: {', '.join(missing)})")
        rotor = TorsionRotor(args.I1, args.I2, args.V0, args.n_fold)
    params = torsion_to_mathieu(rotor)
    regions = classify_regions(ref.LEVELS, [params.l], ref.CALIBRATED_EPS_ROTOR,
                               ref.CALIBRATED_EPS_WELL)[0]
    payload = {
        "l": params.l,
        "U": params.U,
        "omega_prime": params.omega_prime,
        "energy_scale_J": params.energy_scale,
        "metadata": params.metadata,
        "regions": {str(n): g.value for n, g in regions.items()},
    }
    _write(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_report(args) -> int:
    bundle = build_bundle()
    write_bundle(bundle, args.out)
    if bundle.gate_failures:
        for msg in bundle.gate_failures:
            print(f"gate failure: {msg}", file=sys.stderr)
        return EXIT_GATE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpendulum",
        description="Quantum pendulum spectra, symmetry regions, and "
                    "velocity-jump observables.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, summary, fmt=False, out_dir=None):
        """Subcommand with --out, a directory if it has a default ``out_dir``
        and a file otherwise; fmt adds --format for :func:`_emit`."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func, out_is_dir=out_dir is not None)
        p.add_argument("--out", default=out_dir,
                       help=f"output {'directory' if out_dir else 'file'}")
        if fmt:
            p.add_argument("--format", choices=["csv", "json"], default="csv")
        return p

    p = add("characteristics", cmd_characteristics,
            "characteristic-value sweep", fmt=True)
    p.add_argument("--n-max", dest="n_max", type=int, default=8)
    p.add_argument("--l-min", dest="l_min", type=float, default=0.0)
    p.add_argument("--l-max", dest="l_max", type=float, default=55.0)
    p.add_argument("--steps", type=int, default=111)

    p = add("regions", cmd_regions, "splitting/merging boundaries", fmt=True)
    p.add_argument("--n-max", dest="n_max", type=int, default=8)
    p.add_argument("--epsilon", type=float, default=None,
                   help="one relative gap threshold for every row, "
                        "without the per-row fallback")

    add("observables", cmd_tables, "velocity-jump tables",
        out_dir=".").set_defaults(tables=("table3", "table4"))
    add("uncertainty", cmd_tables, "angular uncertainty tables",
        out_dir=".").set_defaults(tables=("table5", "table6"))

    p = add("density", cmd_density, "probability density of one state",
            fmt=True)
    p.add_argument("--family", required=True,
                   choices=[f.value for f in StateFamily])
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-l", type=float, required=True)
    p.add_argument("--points", type=int, default=256)

    p = add("classical", cmd_classical, "Jacobi-elliptic trajectory", fmt=True)
    p.add_argument("--E", type=float, required=True)
    p.add_argument("--U", type=float, required=True)
    p.add_argument("--omega-prime", dest="omega_prime", type=float, default=1.0)
    p.add_argument("--t-max", dest="t_max", type=float, default=10.0)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--arg-convention", dest="arg_convention",
                   choices=[c.value for c in ArgConvention],
                   default=ArgConvention.AS_PRINTED.value)

    p = add("torsion", cmd_torsion, "molecular torsion mapping")
    p.add_argument("--preset", default=None, help="molecule preset name")
    p.add_argument("--I1", type=float, default=None)
    p.add_argument("--I2", type=float, default=None)
    p.add_argument("--V0", type=float, default=None)
    p.add_argument("--n-fold", dest="n_fold", type=int, default=None)

    add("report", cmd_report, "regenerate all tables and figures",
        out_dir="report")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.out = _resolve_out(args.out, args.out_is_dir)
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
