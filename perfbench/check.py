"""Output checks of one benchmark run, outside its timed phase.

    python3 perfbench/check.py SPEC_JSON

SPEC_JSON lists the commands of the run: subcommand, config path and output
directory.  Every check rests on a property the enclosure method must have,
or on a computation made apart from the command that wrote the output:

reconstruct
  * every h_hat is finite and within the acceptance bound of the exact
    support function r + c.rho of the translated ball (0.05; 0.06 when
    translated);
  * the volume of hull.off, summed here from its faces, is within 15 % of
    (4/3) pi r^3.
sweep
  * every row is finite and trusted;
  * the t-scaling identity ln|I(tau,t1)| - ln|I(tau,t2)| = 2 tau (t2 - t1)
    holds to 1e-12 relative;
  * the tau-slope of ln|I| per direction is >= +0.1 below the support value
    and <= -0.1 above it (the dichotomy);
  * the support read off every (direction, t) by the log-tau fit below is
    within 0.05 of r + c.rho;
  * PEC: the lowest-tau samples of three directions, at alternating t,
    agree with the volume side of the energy identity
    (`volume_indicator_pec`) within 1e-3.

Prints one JSON object: {"ok", "problems", "support_err_max", ...}.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict

import numpy as np

SUPPORT_BOUND = 0.05
SUPPORT_BOUND_SHIFTED = 0.06
HULL_VOLUME_BOUND = 0.15
T_IDENTITY_REL = 1e-12
SLOPE_MARGIN = 0.1
ORACLE_REL = 1e-3
ORACLE_DIRECTIONS = 3
FIT_WINDOW = 0.5


def _truth(doc):
    r = doc.get("truth_radius") or doc["geometry"]["r_obstacle"]
    c = np.asarray(doc.get("translation") or [0.0, 0.0, 0.0], dtype=float)
    return float(r), c


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


def support_fit(taus, ln_abs):
    """Slope a of ln|I| = a tau + b ln tau + c over the upper half of the tau
    range; at probe level t the support value is a / 2 + t."""
    taus = np.asarray(taus, dtype=float)
    ln_abs = np.asarray(ln_abs, dtype=float)
    sel = taus >= taus.min() + FIT_WINDOW * (taus.max() - taus.min())
    if sel.sum() < 3:
        sel[:] = True
    X = np.column_stack([taus[sel], np.log(taus[sel]), np.ones(int(sel.sum()))])
    coef, *_ = np.linalg.lstsq(X, ln_abs[sel], rcond=None)
    return float(coef[0])


def hull_volume(path):
    """Volume enclosed by an OFF triangle mesh, by the divergence theorem."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln.strip()]
    nv, nf, _ = (int(v) for v in lines[1].split())
    verts = np.array([[float(x) for x in ln.split()] for ln in lines[2:2 + nv]])
    faces = np.array([[int(x) for x in ln.split()[1:]] for ln in lines[2 + nv:2 + nv + nf]])
    a, b, c = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    return abs(float(np.einsum("ij,ij->i", a, np.cross(b, c)).sum()) / 6.0)


def check_reconstruct(cmd, doc, problems, out):
    r, c = _truth(doc)
    shifted = bool(np.any(c != 0.0))
    bound = SUPPORT_BOUND_SHIFTED if shifted else SUPPORT_BOUND
    header, rows = _read_csv(f"{cmd['out']}/estimates.csv")
    col = {name: i for i, name in enumerate(header)}
    if len(rows) != cmd["operations"]:
        problems.append(f"{cmd['label']}: {len(rows)} estimates, expected {cmd['operations']}")
    errs = []
    for row in rows:
        rho = np.array([float(row[col[k]]) for k in ("rho_x", "rho_y", "rho_z")])
        h = float(row[col["h_hat"]])
        if not math.isfinite(h):
            problems.append(f"{cmd['label']}: h_hat not finite at rho={rho.tolist()}")
            continue
        errs.append(abs(h - (r + float(c @ rho))))
    err = max(errs) if errs else math.inf
    if err > bound:
        problems.append(f"{cmd['label']}: support error {err:.3e} above {bound}")
    ball = 4.0 * math.pi / 3.0 * r ** 3
    vol_err = abs(hull_volume(f"{cmd['out']}/hull.off") - ball) / ball
    if not vol_err <= HULL_VOLUME_BOUND:
        problems.append(f"{cmd['label']}: hull volume off by {100 * vol_err:.1f} %")
    out["support_err"][cmd["label"]] = err
    out["hull_volume_rel_err"][cmd["label"]] = vol_err


def _pec_oracle(doc, picks):
    """Largest relative gap between Re I from the sweep and volume_indicator_pec."""
    from enclosure.cgo import CgoMode, build_probe
    from enclosure.forward import Geometry, solution_pec
    from enclosure.indicator import auto_degree, volume_indicator_pec

    geom = Geometry(float(doc["geometry"]["r_obstacle"]),
                    float(doc["geometry"]["r_domain"]))
    k = float(doc["wave_number"])
    L = doc.get("truncation_degree")
    taus = [p[1] for p in picks]
    L = int(L) if L else auto_degree(max(taus), k, geom.r_domain)
    sol = solution_pec(k, geom, L)
    worst = 0.0
    for rho, tau, t, value in picks:
        probe = build_probe(k, tau, t, np.asarray(rho), CgoMode.IMPENETRABLE)
        vol = volume_indicator_pec(probe, geom, sol.operator, solution=sol)
        worst = max(worst, abs(value.real - vol) / abs(vol))
    return worst


def check_sweep(cmd, doc, problems, out):
    r, c = _truth(doc)
    header, rows = _read_csv(f"{cmd['out']}/sweep.csv")
    col = {name: i for i, name in enumerate(header)}
    if len(rows) != cmd["operations"]:
        problems.append(f"{cmd['label']}: {len(rows)} rows, expected {cmd['operations']}")
    series = defaultdict(list)        # (rho, t) -> [(tau, ln|I|, I)]
    bad = 0
    for row in rows:
        vals = [float(row[col[k]]) for k in ("re_mantissa", "im_mantissa",
                                              "ln_exponent", "log_abs_I")]
        if not all(math.isfinite(v) for v in vals) or row[col["trusted"]] != "1":
            bad += 1
            continue
        rho = tuple(float(row[col[k]]) for k in ("rho_x", "rho_y", "rho_z"))
        value = complex(vals[0], vals[1]) * math.exp(vals[2])
        series[(rho, float(row[col["t"]]))].append(
            (float(row[col["tau"]]), vals[3], value))
    if bad:
        problems.append(f"{cmd['label']}: {bad} rows not finite or not trusted")

    by_rho = defaultdict(dict)
    for (rho, t), pts in series.items():
        by_rho[rho][t] = {tau: ln for tau, ln, _ in pts}
    t_dev = 0.0
    for rho, per_t in by_rho.items():
        ts = sorted(per_t)
        for t1, t2 in zip(ts, ts[1:]):
            for tau in set(per_t[t1]) & set(per_t[t2]):
                diff = per_t[t1][tau] - per_t[t2][tau]
                t_dev = max(t_dev, abs(diff - 2.0 * tau * (t2 - t1))
                            / (1.0 + abs(per_t[t1][tau])))
    if t_dev > T_IDENTITY_REL:
        problems.append(f"{cmd['label']}: t-scaling identity off by {t_dev:.2e}")

    slope_below, slope_above = math.inf, -math.inf
    errs = []
    for (rho, t), pts in series.items():
        pts.sort()
        taus = [p[0] for p in pts]
        lns = [p[1] for p in pts]
        h = r + float(c @ np.asarray(rho))
        slope = float(np.polyfit(taus, lns, 1)[0])
        if t < h:
            slope_below = min(slope_below, slope)
        else:
            slope_above = max(slope_above, slope)
        errs.append(abs(0.5 * support_fit(taus, lns) + t - h))
    if slope_below < SLOPE_MARGIN or slope_above > -SLOPE_MARGIN:
        problems.append(f"{cmd['label']}: dichotomy slopes {slope_below:+.3f} below "
                        f"and {slope_above:+.3f} above the support value")
    err = max(errs) if errs else math.inf
    if err > SUPPORT_BOUND:
        problems.append(f"{cmd['label']}: support read off the sweep off by {err:.3e}")
    out["support_err"][cmd["label"]] = err
    out["t_identity_dev"][cmd["label"]] = t_dev
    out["slopes"][cmd["label"]] = [slope_below, slope_above]

    if doc["problem"] == "pec" and series:
        rhos = sorted(by_rho)
        step = max(1, len(rhos) // ORACLE_DIRECTIONS)
        picks = []
        for i, rho in enumerate(rhos[::step][:ORACLE_DIRECTIONS]):
            ts = sorted(by_rho[rho])
            t = ts[i % len(ts)]
            tau, _, value = min(series[(rho, t)])
            picks.append((rho, tau, t, value))
        gap = _pec_oracle(doc, picks)
        if not gap <= ORACLE_REL:
            problems.append(f"{cmd['label']}: energy identity off by {gap:.2e}")
        out["pec_oracle_rel"][cmd["label"]] = gap


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    out = defaultdict(dict)
    for cmd in spec["commands"]:
        with open(cmd["config"], encoding="utf-8") as fh:
            doc = json.load(fh)
        try:
            if cmd["subcommand"] == "reconstruct":
                check_reconstruct(cmd, doc, problems, out)
            else:
                check_sweep(cmd, doc, problems, out)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            problems.append(f"{cmd['label']}: output unreadable: {exc!r}")
    errs = list(out["support_err"].values())
    result = {"ok": not problems, "problems": problems,
              "support_err_max": max(errs) if errs else math.inf, **out}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
