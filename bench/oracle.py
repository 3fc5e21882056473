"""Independent checks of qpendulum's outputs (parent side only).

Nothing here imports qpendulum. The Mathieu operator
-psi'' + 2 l cos(2 phi) psi = E psi is written in the plane-wave basis
e^{ik phi}/sqrt(2 pi), |k| <= KMAX, and projected onto its four parity
blocks; characteristic values come from dense ``numpy.linalg.eigvalsh``
and states from ``eigh``. ``scipy.special.mathieu_a/b`` is not used:
it returns the wrong branch at some sweep points (mathieu_a(3, 15.5255)
is a_5). Trajectories are checked against ``scipy.special.ellipj``.

``check(op, output)`` returns None when the output is right and a short
reason when it is not.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ellipj

KMAX = 100
VALUE_RTOL = 1e-9       # characteristic values and exact-sum observables
REPORT_GATE = 0.1       # the report's boundary-table gate (table1/table2)
CROSSING_DL = 1e-3      # a boundary must straddle its threshold within this
EPS_SLACK = 1e-7        # relative slack where a gap sits on its threshold
PHI2_RTOL = 1e-5        # trapezoid (qpendulum) against Gauss-Legendre here
TRAJ_RTOL = 1e-9

_K = np.arange(-KMAX, KMAX + 1)


def _projector(family: str) -> tuple[np.ndarray, np.ndarray]:
    """Columns are the parity-adapted basis functions; returns (P, harmonics)."""
    cosine = family.startswith("ce")
    start = {"ce_even": 0, "se_even": 2, "ce_odd": 1, "se_odd": 1}[family]
    ms = np.arange(start, KMAX + 1, 2)
    P = np.zeros((len(_K), len(ms)), dtype=complex)
    for j, m in enumerate(ms):
        if m == 0:
            P[KMAX, j] = 1.0
        elif cosine:  # cos(m phi)/sqrt(pi)
            P[KMAX + m, j] = P[KMAX - m, j] = 1.0 / math.sqrt(2.0)
        else:         # sin(m phi)/sqrt(pi)
            P[KMAX + m, j] = -1j / math.sqrt(2.0)
            P[KMAX - m, j] = 1j / math.sqrt(2.0)
    return P, ms


def _family(kind: str, n: int) -> str:
    return f"{kind}_{'even' if n % 2 == 0 else 'odd'}"


class Mathieu:
    """Dense parity blocks H(l) = D + l S of the Mathieu operator."""

    def __init__(self):
        D = np.diag(_K.astype(float) ** 2)
        S = (np.abs(_K[:, None] - _K[None, :]) == 2).astype(float)
        self.blocks = {}
        for fam in ("ce_even", "ce_odd", "se_odd", "se_even"):
            P, ms = _projector(fam)
            PH = P.conj().T
            self.blocks[fam] = (P, ms, (PH @ D @ P).real, (PH @ S @ P).real)
        self._spectra: dict = {}
        self._vecs: dict = {}

    def values(self, kind: str, n: int, ls) -> np.ndarray:
        """E_n(l) of ce (kind 'ce') or se ('se') at each barrier in ``ls``."""
        fam = _family(kind, n)
        ms = self.blocks[fam][1]
        ls = np.asarray(ls, dtype=float)
        key = (fam, ls.tobytes())
        if key not in self._spectra:
            D, S = self.blocks[fam][2:]
            self._spectra[key] = np.concatenate([
                np.linalg.eigvalsh(D[None] + chunk[:, None, None] * S[None])
                for chunk in np.array_split(ls, max(1, len(ls) // 256))])
        return self._spectra[key][:, int(np.flatnonzero(ms == n)[0])]

    def rel_gap(self, pairing: str, pair: int, ls) -> np.ndarray:
        """Relative gap |Ea - Eb| / |mean| of a rotor (ce_n, se_n) or well
        (ce_n, se_{n+1}) pair."""
        ea = self.values("ce", pair, ls)
        eb = self.values("se", pair if pairing == "rotor" else pair + 1, ls)
        mean = np.abs(0.5 * (ea + eb))
        with np.errstate(divide="ignore"):
            return np.where(mean > 0, np.abs(ea - eb) / mean, np.inf)

    def coeffs(self, kind: str, n: int, l: float) -> np.ndarray:
        """Plane-wave coefficients of ce_n/se_n, order-n harmonic positive."""
        fam = _family(kind, n)
        if (fam, l) not in self._vecs:
            self._vecs[(fam, l)] = np.linalg.eigh(
                self.blocks[fam][2] + l * self.blocks[fam][3])[1]
        P, ms = self.blocks[fam][:2]
        j = int(np.flatnonzero(ms == n)[0])
        vec = self._vecs[(fam, l)][:, j]
        return P @ (vec if vec[j] > 0 else -vec)

    def state(self, family: str, n: int, l: float) -> np.ndarray:
        ce = self.coeffs("ce", n, l)
        if family == "xi":
            return ce
        if family == "eta":
            return self.coeffs("se", n, l)
        sign = 1.0 if family.endswith("+") else -1.0
        se = self.coeffs("se", n if family.startswith("phi") else n + 1, l)
        return (ce + sign * 1j * se) / math.sqrt(2.0)


def moments(c: np.ndarray) -> dict:
    """Exact moments of the state with plane-wave coefficients c."""
    p = np.abs(c) ** 2
    s1 = np.vdot(c[1:], c[:-1])   # <e^{i phi}>
    s2 = np.vdot(c[2:], c[:-2])   # <e^{2i phi}>
    m = {"v": float(np.sum(2 * _K * p)), "v2": float(np.sum(4 * _K ** 2 * p)),
         "sin": s1.imag, "cos": s1.real,
         "sin2": 0.5 - 0.5 * s2.real, "cos2": 0.5 + 0.5 * s2.real,
         "Lz": float(np.sum(_K * p)), "Lz2": float(np.sum(_K ** 2 * p))}
    var_s = m["sin2"] - m["sin"] ** 2
    var_c = m["cos2"] - m["cos"] ** 2
    m["var_Lz"] = m["Lz2"] - m["Lz"] ** 2
    m["ur_a"] = m["var_Lz"] * var_s - 0.25 * var_c
    m["ur_b"] = m["var_Lz"] * var_c - 0.25 * var_s
    return m


def density(c: np.ndarray, phi) -> np.ndarray:
    """|psi(phi)|^2 at the given angles."""
    f = np.exp(1j * np.outer(np.asarray(phi, dtype=float), _K)) @ c
    return np.abs(f) ** 2 / (2.0 * math.pi)


def density_grid(c: np.ndarray, points: int) -> np.ndarray:
    """|psi|^2 on ``points`` equally spaced angles from 0, by FFT."""
    spectrum = np.zeros(points, dtype=complex)
    spectrum[_K % points] = c
    return np.abs(points * np.fft.ifft(spectrum)) ** 2 / (2.0 * math.pi)


def _close(a: float, b: float, rtol: float = VALUE_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


class Oracle:
    def __init__(self, ref: dict):
        self.ref = ref
        self.m = Mathieu()

    def check(self, op: dict, out):
        if isinstance(out, dict) and "error" in out:
            return "raised " + out["error"].strip().splitlines()[-1]
        return getattr(self, "_" + op["kind"])(op, out)

    # -- sweep: the CSV written by report.write_csv ------------------------
    def _sweep(self, op: dict, text: str):
        lines = text.splitlines()
        if lines[0] != "class,n,l,value":
            return f"bad header {lines[0]!r}"
        grid = op["grid"]
        orders = [("ce", n) for n in range(op["n_max"] + 1)] + \
                 [("se", n) for n in range(1, op["n_max"] + 1)]
        if len(lines) - 1 != len(grid) * len(orders):
            return f"{len(lines) - 1} rows, expected {len(grid) * len(orders)}"
        rows = [line.split(",") for line in lines[1:]]
        for i, (kind, n) in enumerate(orders):
            label = f"{kind}_{'even' if n % 2 == 0 else 'odd'}"
            mine = rows[i::len(orders)]
            if any(r[0] != label or int(r[1]) != n for r in mine):
                return f"row labels for {kind}_{n} do not match"
            if any(float(r[2]) != l for r, l in zip(mine, grid)):
                return f"barrier column for {kind}_{n} does not match the grid"
            got = np.array([float(r[3]) for r in mine])
            want = self.m.values(kind, n, grid)
            bad = np.abs(got - want) > VALUE_RTOL * np.maximum(1.0, np.abs(want))
            if bad.any():
                j = int(np.flatnonzero(bad)[0])
                return f"{kind}_{n}(l={grid[j]}) = {float(got[j])!r}, dense {float(want[j])!r}"
        return None

    # -- boundaries -------------------------------------------------------
    def _straddles(self, pairing: str, pair: int, eps: float, l_c: float):
        """None if the relative gap crosses eps at l_c in the pairing's direction."""
        lo, hi = max(l_c - CROSSING_DL, 0.0), l_c + CROSSING_DL
        g_lo, g_hi = self.m.rel_gap(pairing, pair, [lo, hi])
        inside, outside = (g_lo, g_hi) if pairing == "rotor" else (g_hi, g_lo)
        if inside < eps * (1 + EPS_SLACK) and outside >= eps * (1 - EPS_SLACK):
            return None
        return (f"{pairing} gap does not cross {eps:g} at l={l_c:.6g} "
                f"(gap {g_lo:.6g} at {lo:.6g}, {g_hi:.6g} at {hi:.6g})")

    def _find_boundary(self, op: dict, out: dict):
        l_c, eps = out["l_c"], op["eps"]
        lo, hi = sorted(out["bracket"])
        if not lo <= l_c <= hi:
            return f"l_c={l_c} outside its bracket {out['bracket']}"
        if op["pairing"] == "rotor" and l_c == 0.0:
            if self.m.rel_gap("rotor", op["pair"], [hi])[0] < eps:
                return "rotor boundary at 0 but the gap is below threshold"
        else:
            why = self._straddles(op["pairing"], op["pair"], eps, l_c)
            if why:
                return why
        if op["reference"] is not None and abs(l_c - op["reference"]) > REPORT_GATE:
            return f"l_c={l_c:.6g}, reference {op['reference']} (gate {REPORT_GATE})"
        return None

    def _calibrate(self, op: dict, out: dict):
        table = self.ref[op["table"]]
        pairing, eps, tol = op["pairing"], out["epsilon"], out["row_tolerance"]
        for n, target in table.items():
            got = out["computed"][str(n)]
            pair = n if pairing == "rotor" else n - 1
            if not _close(out["residuals"][str(n)], got - target, 1e-12):
                return f"row {n}: residual is not computed - reference"
            if str(n) in out["per_row"]:
                ea = self.m.values("ce", pair, [target])[0]
                eb = self.m.values("se", pair if pairing == "rotor" else pair + 1,
                                   [target])[0]
                if not _close(out["per_row"][str(n)], abs(ea - eb), 1e-8):
                    return f"row {n}: per-row threshold is not the gap at {target}"
            elif abs(got - target) > tol:
                return f"row {n}: {got:.6g} misses {target} by more than {tol}"
            if got > CROSSING_DL:
                why = self._straddles(pairing, pair, eps, got)
                if why:
                    return f"row {n}: {why}"
        return None

    def _schedule(self, op: dict, out: list):
        if len(out) != len(op["t_grid"]):
            return f"{len(out)} schedule points for {len(op['t_grid'])} times"
        ls = [max(op["l_c"] + op["delta_l"] * math.cos(op["omega"] * t), 0.0)
              for t in op["t_grid"]]
        for (t, l, _, _), t_in, l_in in zip(out, op["t_grid"], ls):
            if t != t_in or not _close(l, l_in, 1e-12):
                return f"point t={t_in}: barrier {l}, expected {l_in}"
        accepted = []
        for n in op["levels"]:
            rotor = self.m.rel_gap("rotor", n, ls)
            well = self.m.rel_gap("well", n - 1, ls)
            accepted.append([_regions(r, w, op["eps_rotor"], op["eps_well"])
                             for r, w in zip(rotor, well)])
        prev = None
        for i, (_, l, regions, crossing) in enumerate(out):
            for j, n in enumerate(op["levels"]):
                if regions[j] not in accepted[j][i]:
                    return f"level {n} at l={l:.6g}: {regions[j]}, dense {accepted[j][i]}"
            if crossing != (prev is not None and regions != prev):
                return f"crossing flag wrong at l={l:.6g}"
            prev = regions
        return None

    # -- observables ------------------------------------------------------
    def _state(self, op: dict, out: list):
        m = moments(self.m.state(op["family"], op["n"], op["l"]))
        for name, got in zip(("v", "v2", "sin", "cos", "sin2", "cos2", "Lz", "Lz2",
                              "ur_a", "ur_b"), out):
            if not _close(got, m[name]):
                return f"<{name}> = {got!r}, dense {m[name]!r}"
        return None

    def _density(self, op: dict, out: dict):
        c = self.m.state(op["family"], op["n"], op["l"])
        grid = np.linspace(0.0, 2.0 * math.pi, 16384, endpoint=False)
        rho = density_grid(c, len(grid))
        peaks = grid[(rho > np.roll(rho, 1)) & (rho > np.roll(rho, -1))]
        maxima = out["maxima"]
        if len(maxima) != len(peaks):
            return f"{len(maxima)} density maxima, dense grid has {len(peaks)}"
        for x in maxima:
            d = np.abs((peaks - x + math.pi) % (2.0 * math.pi) - math.pi).min()
            if d > 3.0 * 2.0 * math.pi / 4096:
                return f"maximum at {x:.6g} is {d:.3g} rad from any dense maximum"
        if [row[0] for row in out["lvi"]] != maxima:
            return "local inequality rows do not follow the maxima"
        dlz = math.sqrt(max(moments(c)["var_Lz"], 0.0))
        nodes, weights = np.polynomial.legendre.leggauss(400)
        for phi_m, lo, hi, phi2, lhs, rhs, holds in out["lvi"]:
            if not lo < phi_m < hi:
                return f"window ({lo:.6g}, {hi:.6g}) misses its maximum {phi_m:.6g}"
            x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
            r = density(c, x) * weights
            want = float(np.sum(r * (x - phi_m) ** 2) / np.sum(r))
            if not _close(phi2, want, PHI2_RTOL):
                return f"<phi^2> = {phi2!r} at {phi_m:.6g}, quadrature {want!r}"
            if not (_close(rhs, 0.25 * (1.0 - 0.5 * want), PHI2_RTOL)
                    and _close(lhs, dlz * want, PHI2_RTOL) and holds == (lhs >= rhs)):
                return f"inequality sides wrong at {phi_m:.6g}"
        return None

    def _jump(self, op: dict, out: list):
        src = moments(self.m.state(op["from"], op["n"], op["l_c"]))
        dst = moments(self.m.state(op["to"], op["n"], op["l_c"]))
        dv, dv2 = dst["v"] - src["v"], dst["v2"] - src["v2"]
        if not (_close(out[0], dv) and _close(out[1], dv2)):
            return f"jump ({out[0]!r}, {out[1]!r}), dense ({dv!r}, {dv2!r})"
        if not _close(out[2], dv2 - dv ** 2) or out[3] != (out[2] >= 0.0):
            return "fluctuation radicand wrong"
        return None

    def _trajectory(self, op: dict, out: dict):
        if out["t"] != op["t_grid"]:
            return "time column does not match the input grid"
        wp, U, E = op["omega_prime"], op["U"], op["E"]
        amp = math.sqrt((E + U) * wp)
        arg = wp * amp * np.asarray(op["t_grid"])  # the as-printed convention
        k2 = 2.0 * U / (E + U)
        if E > U:
            want = amp * ellipj(arg, k2)[2]          # A dn(arg | k^2)
        else:
            want = amp * ellipj(arg, 1.0 / k2)[1]    # A cn(arg | 1/k^2)
        err = np.abs(np.asarray(out["dI"]) - want).max()
        if err > TRAJ_RTOL * amp:
            return f"trajectory differs from ellipj by {err:.3g}"
        return None


def _regions(rotor: float, well: float, eps_r: float, eps_w: float) -> set:
    """Regions a level may be in given its two gaps; both when a gap sits
    on its threshold within EPS_SLACK."""
    def states(gap, eps):
        return {gap < eps * (1 - EPS_SLACK), gap < eps * (1 + EPS_SLACK)}
    out = set()
    for r in states(rotor, eps_r):
        for w in states(well, eps_w):
            out.add("G-" if r else "G+" if w else "G0")
    return out
