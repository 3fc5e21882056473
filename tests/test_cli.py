import json

import numpy as np
import pytest

import qpendulum
from qpendulum.cli import (
    EXIT_CONVERGENCE,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)
from qpendulum.mathieu import TRUNCATION_CAP


def test_characteristics_csv(tmp_path):
    out = tmp_path / "chars.csv"
    code = main(["characteristics", "--n-max", "2", "--l-min", "0",
                 "--l-max", "0", "--steps", "2", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "class,n,l,value"
    values = sorted(float(line.split(",")[-1]) for line in lines[1:6])
    np.testing.assert_allclose(values, [0, 1, 1, 4, 4], atol=1e-12)


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
    code = main(["density", "--family", "xi", "-n", "8", "-l", "55",
                 "--truncation-cap", "48"])
    assert code == EXIT_CONVERGENCE


def test_density_validation():
    assert main(["density", "--family", "phi+", "-n", "1", "-l", "0",
                 "--points", "4"]) == EXIT_VALIDATION


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


def test_torsion_explicit_params(tmp_path):
    out = tmp_path / "custom.json"
    code = main(["torsion", "--I1", "5.3e-47", "--I2", "5.3e-47",
                 "--V0", "4.2e-20", "--n-fold", "3", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["l"] == pytest.approx(2 * 11.12, abs=0.2)


def test_torsion_missing_params():
    assert main(["torsion"]) == EXIT_VALIDATION


def test_convergence_exit_code():
    code = main(["characteristics", "--n-max", "1", "--l-min", "1e5",
                 "--l-max", "1e5", "--steps", "2"])
    assert code == EXIT_CONVERGENCE


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
    # The report's solves all run at the default cap, so report has no
    # --truncation-cap flag and argparse refuses it before any work.
    out = tmp_path / "rep"
    with pytest.raises(SystemExit) as exc:
        main(["report", "--truncation-cap", "48", "--out", str(out)])
    assert exc.value.code == EXIT_VALIDATION
    assert not out.exists()
