"""Acceptance gate: one test per criterion, stated tolerances.

Each test prints a single ``[criterion NN] PASS/FAIL`` line before
asserting, so the run log doubles as the gate report. Criteria 3-5
evaluate the velocity-jump and uncertainty tables at the embedded
splitting-point barriers; see the regression suite for the evaluation
points at which those tables do reproduce.

Criteria 3-5 fail, and stay failing as the visible reproduction gap.
The worst errors at ``reference.SPLITTING_POINTS`` are:

* |delta v|: 0.708 at n=8 (14.592 against 13.884); 0.45 at n=7;
* |delta v^2|: 6.81 at n=8;
* ur_a/ur_b (n >= 2): 4.3 relative at the splitting points, 141 at
  the merging points.

At ``reference.OBSERVABLE_EVAL_POINTS`` the same tables reproduce
delta v to 4.2e-4 and delta v^2 to 6.9e-4, but ur_a/ur_b only to
1.4e-2 relative (n=5), still above criterion 5's 1e-2.

No sign convention for ce_n or se_n can close the gap: every compared
quantity is invariant under flipping either sign, since
|delta v| = 2 |<ce_n|se_n'>|, delta v^2 = 2 (|ce_n'|^2 - |se_n'|^2), and
the phi+- uncertainty products depend only on variances.
"""

import numpy as np
import pytest

from qpendulum import reference as ref
from qpendulum.classical import elliptic_K, jacobi_cn_dn
from qpendulum.mathieu import (
    MathieuClass,
    a_value,
    b_value,
    ce_class,
    ce_series,
    characteristic_values,
    se_class,
    se_series,
)
from qpendulum.series import inner_product
from qpendulum.states import (
    StateFamily,
    StateSpec,
    build_state,
    jump_at_boundary,
    velocity_expect,
    velocity_sq_expect,
)
from qpendulum.symmetry import (
    GapMeasure,
    GroupElement,
    PairingKind,
    apply_group_element,
    compose,
    find_boundary,
    level_pair,
    pair_gap,
)
from qpendulum.torsion import HBAR_SI, TorsionRotor, torsion_to_mathieu
from qpendulum.uncertainty import angular_moments


def _gate(num, name, ok, detail=""):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed {detail}"


def test_criterion_01_free_rotor_spectrum():
    worst = 0.0
    for n in range(0, 13):
        worst = max(worst, abs(a_value(n, 0.0) - n * n))
        if n >= 1:
            worst = max(worst, abs(b_value(n, 0.0) - n * n))
    _gate(1, "free-rotor spectrum n^2", worst < 1e-12, f"max err {worst:.2e}")


def test_criterion_02_orthonormality_and_residual():
    worst_ortho, worst_res = 0.0, 0.0
    for l in (0.5, 3.42, 11.1, 50.84):
        for cls_fn, series_fn, orders in ((ce_class, ce_series, range(0, 11)),
                                          (se_class, se_series, range(1, 11))):
            series = {}
            for n in orders:
                value = characteristic_values(cls_fn(n), n, n, l)[0]
                s = series_fn(n, l)
                series[n] = s
                # (Hc)_k = k^2 c_k + l (c_{k-2} + c_{k+2}) in plane waves
                c = np.pad(s.coeffs, 2)
                k = np.arange(len(c)) - len(c) // 2
                hc = k ** 2 * c + l * (np.roll(c, 2) + np.roll(c, -2))
                worst_res = max(worst_res, np.linalg.norm(hc - value * c))
            for n, sn in series.items():
                for m, sm in series.items():
                    delta = 1.0 if n == m else 0.0
                    worst_ortho = max(
                        worst_ortho, abs(inner_product(sn, sm) - delta))
    ok = worst_ortho < 1e-10 and worst_res < 1e-8
    _gate(2, "orthonormality and operator residual", ok,
          f"ortho {worst_ortho:.2e}, residual {worst_res:.2e}")


def _jump_columns(n, l_c, attr):
    return [
        getattr(jump_at_boundary(n, fam, to, l_c), attr)
        for fam in (StateFamily.PHI_PLUS, StateFamily.PHI_MINUS)
        for to in (StateFamily.XI, StateFamily.ETA)
    ]


def test_criterion_03_velocity_jump_table():
    worst, antisym = 0.0, 0.0
    for n in ref.LEVELS:
        cols = _jump_columns(n, ref.SPLITTING_POINTS[n], "delta_v")
        for c, r in zip(cols, ref.DELTA_V[n]):
            worst = max(worst, abs(abs(c) - abs(r)))
        antisym = max(antisym, abs(cols[0] + cols[2]), abs(cols[1] + cols[3]))
    ok = worst < 5e-3 and antisym < 1e-10
    _gate(3, "velocity jump magnitudes at splitting points", ok,
          f"max |mag err| {worst:.3g}, antisymmetry {antisym:.1e}")


def test_criterion_04_velocity_sq_jump_table():
    worst = 0.0
    signs_ok = True
    for n in ref.LEVELS:
        cols = _jump_columns(n, ref.SPLITTING_POINTS[n], "delta_v2")
        for c, r in zip(cols, ref.DELTA_V2[n]):
            worst = max(worst, abs(abs(c) - abs(r)))
        if n > 1:
            signs_ok = signs_ok and cols[0] * cols[1] < 0
    ok = worst < 2e-2 and signs_ok
    _gate(4, "squared-velocity jump magnitudes at splitting points", ok,
          f"max |mag err| {worst:.3g}, sign opposition {signs_ok}")


def _ur_row_error(n, l_c):
    fams = (StateFamily.PHI_PLUS, StateFamily.PHI_MINUS,
            StateFamily.XI, StateFamily.ETA)
    worst = 0.0
    for table, attr in ((ref.UR_A, "ur_a"), (ref.UR_B, "ur_b")):
        for fam, target in zip(fams, table[n]):
            value = getattr(
                angular_moments(build_state(StateSpec(fam, n, l_c))), attr)
            worst = max(worst, abs(value - target) / max(abs(target), 1e-30))
    return worst


def test_criterion_05_uncertainty_tables():
    spec1 = lambda f: build_state(StateSpec(f, 1, 0.0))
    n1 = max(
        abs(angular_moments(spec1(StateFamily.PHI_PLUS)).ur_a + 0.125),
        abs(angular_moments(spec1(StateFamily.XI)).ur_a - 0.0625),
        abs(angular_moments(spec1(StateFamily.ETA)).ur_a - 0.6875),
        abs(angular_moments(spec1(StateFamily.XI)).ur_b - 0.6875),
        abs(angular_moments(spec1(StateFamily.ETA)).ur_b - 0.0625),
    )
    split_err = max(_ur_row_error(n, ref.SPLITTING_POINTS[n])
                    for n in range(2, 9))
    merge_err = max(_ur_row_error(n, ref.MERGING_POINTS[n])
                    for n in range(2, 9))
    better = ("splitting" if split_err <= merge_err else "merging")
    ok = n1 < 1e-10 and min(split_err, merge_err) < 1e-2
    _gate(5, "uncertainty tables", ok,
          f"n=1 err {n1:.1e}; rel err at splitting pts {split_err:.3g}, "
          f"at merging pts {merge_err:.3g} (closer: {better})")


def test_criterion_06_boundary_tables():
    splits, merges = {}, {}
    for n in ref.LEVELS:
        splits[n] = find_boundary(n, PairingKind.ROTOR,
                                  ref.CALIBRATED_EPS_ROTOR,
                                  GapMeasure.RELATIVE).l_c
        pair = level_pair(n, PairingKind.WELL)
        l_c = find_boundary(pair, PairingKind.WELL,
                            ref.CALIBRATED_EPS_WELL, GapMeasure.RELATIVE).l_c
        if abs(l_c - ref.MERGING_POINTS[n]) > 0.1:
            eps = pair_gap(pair, PairingKind.WELL, ref.MERGING_POINTS[n],
                           GapMeasure.ABSOLUTE)
            l_c = find_boundary(pair, PairingKind.WELL, eps,
                                GapMeasure.ABSOLUTE).l_c
        merges[n] = l_c
    worst = max(
        max(abs(splits[n] - ref.SPLITTING_POINTS[n]) for n in ref.LEVELS),
        max(abs(merges[n] - ref.MERGING_POINTS[n]) for n in ref.LEVELS),
    )
    svals = [splits[n] for n in ref.LEVELS]
    mvals = [merges[n] for n in ref.LEVELS]
    monotone = (all(a < b for a, b in zip(svals, svals[1:]))
                and all(a < b for a, b in zip(mvals, mvals[1:])))
    ordered = all(splits[n] < merges[n] for n in ref.LEVELS)
    ok = worst < 0.1 and monotone and ordered
    _gate(6, "splitting/merging boundary tables", ok,
          f"max residual {worst:.3g}, monotone {monotone}, rotor<well {ordered}")


def test_criterion_07_free_rotor_velocity():
    worst = 0.0
    for n in range(1, 9):
        vp = velocity_expect(build_state(StateSpec(StateFamily.PHI_PLUS, n, 1e-8)))
        vm = velocity_expect(build_state(StateSpec(StateFamily.PHI_MINUS, n, 1e-8)))
        worst = max(worst, abs(vp - 2 * n), abs(vm + 2 * n))
    _gate(7, "free-rotor velocity +-2n", worst < 1e-6, f"max err {worst:.1e}")


def test_criterion_08_elliptic_kernels():
    us = np.linspace(0.0, 5.0, 51)
    worst_dn = max(abs(jacobi_cn_dn(u, 1.0)[1] - 1 / np.cosh(u)) for u in us)
    worst_cn = max(abs(jacobi_cn_dn(u, 0.0)[0] - np.cos(u)) for u in us)
    k0 = abs(elliptic_K(0.0) - np.pi / 2)

    def series_K(k, terms=3000):
        total, coeff = 1.0, 1.0
        for m in range(1, terms):
            coeff *= (2 * m - 1) / (2 * m)
            total += coeff ** 2 * k ** (2 * m)
        return np.pi / 2 * total

    worst_agm = max(abs(elliptic_K(k) - series_K(k)) / series_K(k)
                    for k in (0.2, 0.5, 0.8, 0.95))
    ok = worst_dn < 1e-10 and worst_cn < 1e-10 and k0 < 1e-14 and worst_agm < 1e-12
    _gate(8, "elliptic kernels", ok,
          f"dn {worst_dn:.1e}, cn {worst_cn:.1e}, K(0) {k0:.1e}, "
          f"AGM vs series {worst_agm:.1e}")


def test_criterion_09_klein_group_properties():
    from qpendulum.series import TrigSeries
    from qpendulum.mathieu import ce_series, se_series

    rng = np.random.default_rng(99)
    elements = list(GroupElement)
    worst = 0.0
    for _ in range(100):
        s = TrigSeries(rng.normal(size=9) + 1j * rng.normal(size=9))
        g1, g2 = rng.choice(elements, size=2)
        lhs = apply_group_element(apply_group_element(s, g2), g1)
        rhs = apply_group_element(s, compose(g1, g2))
        worst = max(worst, (lhs - rhs).norm())
    parity = 0.0
    for l in (0.0, 3.42, 23.93):
        for n in range(1, 9):
            ce = ce_series(n, l)
            se = se_series(n, l)
            parity = max(parity,
                         (apply_group_element(ce, GroupElement.A) - ce).norm(),
                         (apply_group_element(se, GroupElement.A) + se).norm())
    ok = worst < 1e-14 and parity < 1e-12
    _gate(9, "Klein group composition and parity", ok,
          f"composition {worst:.1e}, parity {parity:.1e}")


def test_criterion_10_ethane_mapping():
    rotor = TorsionRotor(5.3e-47, 5.3e-47, 2.1e-20, 3)
    l = torsion_to_mathieu(rotor).l
    oracle = 2 * (5.3e-47 / 2) * 2.1e-20 / (9 * HBAR_SI ** 2)
    linear = torsion_to_mathieu(
        TorsionRotor(5.3e-47, 5.3e-47, 4.2e-20, 3)).l
    scaled = torsion_to_mathieu(
        TorsionRotor(5.3e-47, 5.3e-47, 2.1e-20, 6)).l
    ok = (abs(l - oracle) < 0.1
          and linear == 2 * l
          and scaled == l / 4)
    _gate(10, "ethane barrier mapping", ok,
          f"l {l:.4f} vs oracle {oracle:.4f}; linearity/scaling exact "
          f"{linear == 2 * l and scaled == l / 4}")


def test_criterion_11_cross_module_consistency():
    families = {
        StateFamily.PHI_PLUS: 1, StateFamily.PHI_MINUS: 1,
        StateFamily.XI: 0, StateFamily.ETA: 1,
        StateFamily.PSI_PLUS: 0, StateFamily.PSI_MINUS: 0,
    }
    worst = 0.0
    for fam, n_min in families.items():
        for n in range(max(n_min, 1), 9):
            state = build_state(StateSpec(fam, n, ref.SPLITTING_POINTS[n]))
            r = angular_moments(state)
            worst = max(
                worst,
                abs(r.exp_Lz - 0.5 * velocity_expect(state)),
                abs(r.exp_Lz2 - 0.25 * velocity_sq_expect(state)),
            )
    grid = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
    quad_worst = 0.0
    from qpendulum.series import eval_series
    for fam in (StateFamily.PHI_PLUS, StateFamily.ETA):
        state = build_state(StateSpec(fam, 3, ref.SPLITTING_POINTS[3]))
        rho = np.abs(eval_series(state.series, grid)) ** 2
        r = angular_moments(state)
        for weight, value in ((np.sin(grid), r.exp_sin),
                              (np.cos(grid) ** 2, r.exp_cos2)):
            quad = np.sum(rho * weight) * 2 * np.pi / len(grid)
            quad_worst = max(quad_worst, abs(quad - value))
    ok = worst < 1e-12 and quad_worst < 1e-8
    _gate(11, "cross-module consistency", ok,
          f"Lz identities {worst:.1e}, quadrature {quad_worst:.1e}")


def test_criterion_12_report_determinism(tmp_path):
    from qpendulum.report import DATA_FILES, build_bundle, write_bundle

    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        write_bundle(build_bundle(), d)
    identical = all(
        (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        for name in DATA_FILES)
    _gate(12, "report determinism", identical,
          f"{len(DATA_FILES)} data files compared")
