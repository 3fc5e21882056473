import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qpendulum
from qpendulum.cli import (
    EXIT_CONVERGENCE,
    EXIT_GATE,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)
from qpendulum.mathieu import TRUNCATION_CAP
from qpendulum.symmetry import PairingKind, boundary_table


def test_characteristics_csv(tmp_path):
    out = tmp_path / "chars.csv"
    code = main(["characteristics", "--n-max", "2", "--l-min", "0",
                 "--l-max", "0", "--steps", "2", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "class,n,l,value"
    values = sorted(float(line.split(",")[-1]) for line in lines[1:6])
    np.testing.assert_allclose(values, [0, 1, 1, 4, 4], atol=1e-12)


def test_csv_cells_are_str_and_paths_may_be_str(tmp_path):
    from qpendulum.report import format_csv, write_csv

    # a NumPy scalar once printed as its repr, np.float64(0.5)
    rows = [(np.float64(0.5), np.int64(3), 0.1, "ce_even", 2)]
    assert format_csv(["l", "n", "x", "c", "k"], rows) == "l,n,x,c,k\n0.5,3,0.1,ce_even,2\n"
    # a str path once raised AttributeError
    out = tmp_path / "cells.csv"
    write_csv(str(out), ["l"], [(np.float64(1e-6),), (1 / 3,)])
    assert out.read_text() == "l\n1e-06\n0.3333333333333333\n"


def _csv_cases():
    """Tables whose shared column meets cells that are equal, or print
    alike, without being the object above them."""
    zero, minus_zero, one, third, pct = float("0.0"), float("-0.0"), 1, 1 / 3, "5%s%%"
    nan, other_nan, x = float("nan"), float("nan"), np.float64(0.1)
    return {
        "shared % cell": [(pct, 1, 2.5), (pct, 2, 3.5), ("%", 3, "%%"), (pct, 4, 4.5)],
        "0.0 and -0.0": [(zero, "a", 1), (zero, "b", 2), (minus_zero, "c", 3),
                         (zero, "d", 4)],
        "1, 1.0 and True": [("a", one, 0.5), ("b", one, 0.5), ("c", 1.0, 0.5),
                            ("d", True, 0.5), ("e", one, 0.5)],
        "distinct NaNs": [("a", nan, 1), ("b", nan, 2), ("c", other_nan, 3),
                          ("d", np.nan, 4)],
        "NumPy scalars": [(x, np.int64(3), x), (x, np.int64(3), 0.1),
                          (np.float64(1e-6), np.int64(-4), np.float64(0.1))],
        "back after another": [("a", third, 1), ("b", third, 2), ("c", 2 / 3, 3),
                               ("d", third, 4)],
        "no shared column": [(1, 0.25, "a"), (2, 0.5, "b"), (3, 0.5, "c")],
        "one row": [(third, one, "a")],
        "no rows": [],
        "one column": [(third,), (third,), (2 / 3,), (third,)],
        "two columns": [(third, 1), (third, 2), (-0.0, 3)],
    }


@pytest.mark.parametrize("name", list(_csv_cases()))
def test_csv_equals_str_of_every_cell(name):
    """However the rows share objects, format_csv writes each cell as its
    own str: from a list of tuples, a list of lists and a generator."""
    from qpendulum.report import format_csv

    rows = _csv_cases()[name]
    header = [f"c{i}" for i in range(len(rows[0]) if rows else 3)]
    want = "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])
    assert format_csv(header, rows) == want
    assert format_csv(header, [list(row) for row in rows]) == want
    assert format_csv(header, (row for row in rows)) == want


def test_characteristics_json(tmp_path):
    out = tmp_path / "chars.json"
    code = main(["characteristics", "--n-max", "1", "--l-min", "0",
                 "--l-max", "1", "--steps", "2", "--format", "json",
                 "--out", str(out)])
    assert code == EXIT_OK
    rows = json.loads(out.read_text())
    assert {"class", "n", "l", "value"} <= set(rows[0])


def test_characteristics_validation():
    assert main(["characteristics", "--steps", "1"]) == EXIT_VALIDATION


def test_regions(tmp_path):
    out = tmp_path / "regions.csv"
    code = main(["regions", "--n-max", "2", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,pairing,l_c,epsilon,measure"
    assert len(lines) == 5  # header + 2 levels x 2 pairings


def test_regions_match_report_boundary_tables(tmp_path):
    # regions and the report share one boundary function, so every
    # tabulated row agrees, the n=2 merging fallback row included
    regions = tmp_path / "regions.csv"
    report = tmp_path / "rep"
    assert main(["regions", "--n-max", "8", "--out", str(regions)]) == EXIT_OK
    assert main(["report", "--out", str(report)]) == EXIT_OK
    rows = [line.split(",") for line in regions.read_text().splitlines()[1:]]
    for pairing, table in (("rotor", "table1.csv"), ("well", "table2.csv")):
        mine = {int(r[0]): float(r[2]) for r in rows if r[1] == pairing}
        theirs = {int(r[0]): float(r[1]) for r in (
            line.split(",")
            for line in (report / table).read_text().splitlines()[1:])}
        assert mine == theirs
    assert [r[4] for r in rows if r[:2] == ["2", "well"]] == ["absolute"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_regions_not_found_rows_exit_as_a_gate_failure(fmt, tmp_path):
    # the relative rotor gap never reaches 1e300, so both rotor rows are
    # not found; the well pairs are degenerate from the probe point on
    out = tmp_path / f"regions.{fmt}"
    assert main(["regions", "--n-max", "2", "--epsilon", "1e300", "--format", fmt,
                 "--out", str(out)]) == EXIT_GATE
    if fmt == "json":
        rows = [(r["n"], r["pairing"], r["l_c"]) for r in json.loads(out.read_text())]
    else:
        rows = [(int(n), p, l_c if l_c == "not-found" else float(l_c))
                for n, p, l_c, *_ in (line.split(",")
                                      for line in out.read_text().splitlines()[1:])]
    assert rows == [(1, "rotor", "not-found"), (1, "well", 1e-06),
                    (2, "rotor", "not-found"), (2, "well", 1e-06)]


def test_report_formats_a_missing_boundary_as_not_found(monkeypatch):
    # boundary_table gives None for a row without a crossing; the report
    # writes it as a not-found row and fails that table's gate
    from qpendulum import report

    def without_row_3(levels, pairing, epsilon, reference):
        table = boundary_table(levels, pairing, epsilon, reference)
        return table | {3: None} if pairing is PairingKind.ROTOR else table

    monkeypatch.setattr(report, "boundary_table", without_row_3)
    bundle = report.build_bundle()
    assert bundle.data["table1"][2] == (3, "not-found", 1.14, "not-found")
    assert "not-found" not in {row[1] for row in bundle.data["table2"]}
    assert bundle.gate_failures == ["table1: 1 boundary rows not found"]
    assert bundle.max_residuals["table1"] < report.GATES["table1"]


def test_density_flat(tmp_path):
    out = tmp_path / "dens.csv"
    code = main(["density", "--family", "phi+", "-n", "1", "-l", "0",
                 "--points", "32", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    vals = [float(line.split(",")[1]) for line in lines[1:-1]]
    np.testing.assert_allclose(vals, 1.0 / (2 * np.pi), atol=1e-12)
    assert lines[-1].startswith("# integral")


def test_density_truncation_cap_exit_code():
    # at l = 1e11 sizes 256 and 512, the fixed cap, still disagree
    code = main(["density", "--family", "xi", "-n", "8", "-l", "1e11"])
    assert code == EXIT_CONVERGENCE


def test_truncation_cap_is_not_an_option():
    with pytest.raises(SystemExit) as exc:
        main(["density", "--family", "xi", "-n", "8", "-l", "55",
              "--truncation-cap", "48"])
    assert exc.value.code == EXIT_VALIDATION


def test_density_validation():
    assert main(["density", "--family", "phi+", "-n", "1", "-l", "0",
                 "--points", "4"]) == EXIT_VALIDATION


def test_density_level_its_family_lacks(capsys):
    # phi+ at n = 0 once failed on "se order" after the solve had begun
    assert main(["density", "--family", "phi+", "-n", "0", "-l", "1"]) == EXIT_VALIDATION
    assert "phi+ level must be an integer >= 1" in capsys.readouterr().err


def test_classical_trajectory(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(["classical", "--E", "9.0", "--U", "1.0", "--t-max", "2",
                 "--steps", "10", "--out", str(out)])
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert float(rows[0][1]) == pytest.approx(np.sqrt(10.0), abs=1e-10)


def test_classical_separatrix_exit_code():
    assert main(["classical", "--E", "1.0", "--U", "1.0"]) == EXIT_VALIDATION


def test_classical_convention_flag(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    base = ["classical", "--E", "3.0", "--U", "1.0", "--omega-prime", "2.0",
            "--t-max", "1", "--steps", "5"]
    main(base + ["--arg-convention", "as-printed", "--out", str(a)])
    main(base + ["--arg-convention", "dimensional", "--out", str(b)])
    assert a.read_text() != b.read_text()


def test_torsion_preset(tmp_path):
    out = tmp_path / "ethane.json"
    code = main(["torsion", "--preset", "ethane", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["l"] == pytest.approx(11.12, abs=0.1)
    assert set(payload["regions"]) == {str(n) for n in range(1, 9)}


def test_torsion_preset_name_is_not_a_path(tmp_path, capsys):
    # a name was once a path under the package's data folder, so it could
    # reach any .preset file; "I1 = abc" in one exited 1 with a traceback
    (tmp_path / "bad.preset").write_text("I1 = abc\n")
    data = Path(qpendulum.__file__).parent / "data"
    for name in ("../ethane", os.path.relpath(tmp_path / "bad", data)):
        assert main(["torsion", "--preset", name]) == EXIT_VALIDATION
        assert capsys.readouterr().out == ""


def test_torsion_explicit_params(tmp_path):
    out = tmp_path / "custom.json"
    code = main(["torsion", "--I1", "5.3e-47", "--I2", "5.3e-47",
                 "--V0", "4.2e-20", "--n-fold", "3", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["l"] == pytest.approx(2 * 11.12, abs=0.2)


def test_torsion_tiny_rotor_gives_finite_json(capsys):
    # I1 I2 once underflowed to 0 and the energy scale divided by it
    code = main(["torsion", "--I1", "1e-300", "--I2", "1e-300",
                 "--V0", "1e-300", "--n-fold", "1"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert np.isfinite([payload[k] for k in
                        ("l", "U", "omega_prime", "energy_scale_J")]).all()


def test_torsion_missing_params():
    assert main(["torsion"]) == EXIT_VALIDATION


def test_convergence_exit_code():
    # at l = 1e11 no lower bound holds at the size-512 cap: the tail's
    # diagonal starts less than 2 l above the value; l = 1e5 closes its
    # bounds at sizes 62 (order 0) and 70 (order 1)
    code = main(["characteristics", "--n-max", "1", "--l-min", "1e11",
                 "--l-max", "1e11", "--steps", "2"])
    assert code == EXIT_CONVERGENCE


@pytest.mark.parametrize("argv", [
    ["characteristics", "--l-min", "0", "--l-max", "nan", "--steps", "3"],
    ["density", "--family", "xi", "-n", "2", "-l", "inf"],
])
def test_nonfinite_barrier_exit_code(argv):
    assert main(argv) == EXIT_VALIDATION


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-3"])
def test_regions_rejects_bad_epsilon(value, capsys):
    assert main(["regions", "--n-max", "2", f"--epsilon={value}"]) == EXIT_VALIDATION
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flags", [
    ["--E", "nan", "--U", "1.0"],
    ["--E", "2.0", "--U", "nan"],
    ["--E", "2.0", "--U", "1.0", "--omega-prime", "nan"],
    ["--E", "inf", "--U", "1.0"],
    ["--E", "2.0", "--U", "1.0", "--t-max", "nan"],
    ["--E", "2.0", "--U", "1.0", "--t-max", "inf"],
])
def test_classical_rejects_nonfinite_inputs(flags, capsys):
    assert main(["classical", *flags]) == EXIT_VALIDATION
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["characteristics", "--n-max", "2", "--l-max", "3", "--steps", "4"],
    ["regions", "--n-max", "2"],
    ["classical", "--E", "3.0", "--U", "1.0", "--t-max", "1", "--steps", "5"],
    ["density", "--family", "phi+", "-n", "2", "-l", "1.5", "--points", "16"],
])
def test_csv_stdout_matches_file(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) in (EXIT_OK, EXIT_GATE)
    capsys.readouterr()
    main(argv)
    assert capsys.readouterr().out == out.read_text()


@pytest.mark.parametrize("argv", [
    ["classical", "--E", "3", "--U", "1", "--steps", "-1"],
    ["classical", "--E", "3", "--U", "1", "--steps", "0"],
    ["characteristics", "--n-max", "-1"],
    ["regions", "--n-max", "0"],
    ["regions", "--n-max", "-3"],
    ["regions", "--n-max", "13"],
    # a 401-digit n-fold once raised OverflowError
    ["torsion", "--I1", "1", "--I2", "1", "--V0", "1", "--n-fold", "1" + "0" * 400],
])
def test_counts_out_of_range_exit_code(argv, capsys):
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv,kind", [
    (["observables"], "file"),
    (["uncertainty"], "file"),
    (["report"], "file"),
    (["characteristics", "--n-max", "1", "--steps", "2"], "dir"),
    (["torsion", "--preset", "ethane"], "dir"),
    (["characteristics", "--n-max", "1", "--steps", "2"], "orphan"),
])
def test_out_of_the_wrong_kind_exit_code(argv, kind, tmp_path, capsys,
                                        monkeypatch):
    import qpendulum.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("computed before --out was checked")

    for name in ("build_bundle", "observable_tables",
                 "sweep_characteristics", "torsion_to_mathieu"):
        monkeypatch.setattr(cli, name, no_work)
    out = {"file": tmp_path / "taken.csv", "dir": tmp_path,
           "orphan": tmp_path / "missing" / "out.csv"}[kind]
    if kind == "file":
        out.write_text("keep\n")
    assert main(argv + ["--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().out == ""
    if kind == "file":
        assert out.read_text() == "keep\n"


# Every float option of every subcommand, each on a base command that is
# valid on its own; the options of one subcommand share its base.
_FLOAT_OPTIONS = {
    "characteristics": (["--n-max", "2", "--steps", "3"], ["--l-min", "--l-max"]),
    "regions": ([], ["--epsilon"]),
    "density": (["--family", "psi-", "-n", "3", "-l", "7.3"], ["-l"]),
    "classical": (["--E", "0.5", "--U", "1"],
                  ["--E", "--U", "--omega-prime", "--t-max"]),
    "torsion": (["--I1", "5.3e-47", "--I2", "5.3e-47", "--V0", "2.1e-20",
                 "--n-fold", "3"], ["--I1", "--I2", "--V0"]),
}
_EDGE_VALUES = ["nan", "inf", "-inf", "0", "5e-324", "1e-300", "1e300", "-1e300"]


@pytest.mark.parametrize("command,option", [
    (command, option) for command, (_, options) in _FLOAT_OPTIONS.items()
    for option in options])
def test_every_float_option_keeps_the_exit_code_contract(command, option):
    # `regions --epsilon 1e-300` once let scipy's ValueError escape
    base = [command, *_FLOAT_OPTIONS[command][0]]
    for value in _EDGE_VALUES:
        code = main([*base, f"{option}={value}"])  # "=": "-inf" is no option
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_CONVERGENCE, EXIT_GATE), value


def test_grid_of_the_largest_barriers_keeps_the_exit_code_contract():
    # the grid's a-priori tail bound d + (1 + sqrt 2) l overflows here; the
    # rows go to the single-barrier engine without a NumPy warning
    assert main(["characteristics", "--l-min", "1e300", "--l-max", "1.7e308",
                 "--steps", "2"]) == EXIT_CONVERGENCE


def test_report_determinism(tmp_path):
    from qpendulum.report import DATA_FILES

    dir1 = tmp_path / "run1"
    dir2 = tmp_path / "run2"
    assert main(["report", "--out", str(dir1)]) == EXIT_OK
    assert main(["report", "--out", str(dir2)]) == EXIT_OK
    for name in DATA_FILES:
        assert (dir1 / name).read_bytes() == (dir2 / name).read_bytes()
    assert (dir1 / "metadata.json").exists()
    assert (dir1 / "summary.txt").exists()


def test_report_and_table_subcommands_write_only_documented_files(tmp_path):
    from qpendulum.report import DATA_FILES

    rep = tmp_path / "report"
    assert main(["report", "--out", str(rep)]) == EXIT_OK
    assert sorted(p.name for p in rep.iterdir()) == sorted(
        [*DATA_FILES, "metadata.json", "summary.txt"])
    for command, tables in (("observables", ("table3", "table4")),
                            ("uncertainty", ("table5", "table6"))):
        out = tmp_path / command
        assert main([command, "--out", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == [f"{t}.csv" for t in tables]
        for t in tables:
            assert (out / f"{t}.csv").read_bytes() == (rep / f"{t}.csv").read_bytes()


def test_bundle_data_is_one_dict_in_data_file_order():
    from qpendulum.report import DATA_FILES, HEADERS, build_bundle

    data = build_bundle().data
    assert list(data) == list(HEADERS)
    assert [f"{name}.csv" for name in data] == list(DATA_FILES)
    for fig, table in (("fig2_delta_v", "table3"), ("fig3_delta_v2", "table4")):
        assert data[fig] == [row[:4] for row in data[table]]
        assert all(len(row) == len(HEADERS[fig]) for row in data[fig])


def test_report_metadata_complete(tmp_path):
    out = tmp_path / "rep"
    assert main(["report", "--out", str(out)]) == EXIT_OK
    meta = json.loads((out / "metadata.json").read_text())
    for key in ("version", "truncation_cap", "epsilon_rotor",
                "epsilon_well", "evaluation_points", "gates"):
        assert meta[key] not in (None, "", {})
    assert meta["version"] == qpendulum.__version__
    assert meta["truncation_cap"] == TRUNCATION_CAP


def test_report_rejects_unused_truncation_cap(tmp_path):
    # The solver has one fixed cap, so report has no
    # --truncation-cap flag and argparse refuses it before any work.
    out = tmp_path / "rep"
    with pytest.raises(SystemExit) as exc:
        main(["report", "--truncation-cap", "48", "--out", str(out)])
    assert exc.value.code == EXIT_VALIDATION
    assert not out.exists()


def _run_from_a_checkout(cwd, *argv):
    """``python -m qpendulum *argv`` in ``cwd``, with only ``src`` on the path."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "qpendulum", *argv],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120)


def test_python_dash_m_runs_from_a_checkout(tmp_path):
    proc = _run_from_a_checkout(tmp_path, "regions", "--n-max", "2")
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.splitlines()[0] == "n,pairing,l_c,epsilon,measure"
    assert len(proc.stdout.splitlines()) == 5


def test_classical_below_the_well_bottom_only_errors(tmp_path):
    # E + U < 0 once printed a RuntimeWarning from sqrt before the error
    proc = _run_from_a_checkout(tmp_path, "classical", "--E", "-3", "--U", "1")
    assert proc.returncode == EXIT_VALIDATION
    assert proc.stdout == ""
    assert proc.stderr == "error: E + U must be positive\n"


def test_python_dash_m_loads_a_preset_from_a_checkout(tmp_path):
    # presets are a constant of qpendulum.torsion, not package data files
    proc = _run_from_a_checkout(tmp_path, "torsion", "--preset", "ethane")
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["l"] == pytest.approx(11.12, abs=0.1)
