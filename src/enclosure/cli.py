"""Batch front end: validate | sweep | reconstruct | selftest.

Exit codes: 0 success, 1 selftest failure, 2 invalid configuration or
unwritable output, 3 solver guard tripped, 4 hull infeasible/unbounded.
Each output is written atomically (temp file + rename, the temp file
removed if either fails) so no file is left partial; an identical config
yields byte-identical bytes.

`main` registers `gc.freeze` to run at exit, once per process: every
output is written and closed by then, so the collector passes of
interpreter teardown may skip the objects still alive.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import sys

import numpy as np

from .config import RunConfig, load_config
from .errors import (ConfigError, Infeasible, InsufficientTrustedSamples,
                     NearEigenvalue, NearInteriorEigenvalue,
                     QuadratureUnderResolved, RadialOverflow,
                     TruncationInsufficient, Unbounded)
from .indicator import IndicatorEngine, SweepConfig
from .recon import estimate_support, reconstruct_hull, synth_translated

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_GEOMETRY = 4

_GUARD_ERRORS = (NearEigenvalue, NearInteriorEigenvalue, RadialOverflow,
                 TruncationInsufficient, QuadratureUnderResolved,
                 InsufficientTrustedSamples)


def _fmt(x: float) -> str:
    """17-significant-digit float serialization (round-trip exact; "inf",
    "-inf" and "nan" for the values that are not finite)."""
    return f"{x:.17g}"


def _atomic_write(path: str, text: str):
    tmp = path + ".tmp"
    fh = open(tmp, "w", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _engine_for(config: RunConfig) -> IndicatorEngine:
    sweep_cfg = SweepConfig(
        problem=config.problem,
        geometry=config.geometry,
        k=config.wave_number,
        medium=config.medium,
        L=config.degree,
        tail_tol=config.tolerances["trace_tail"],
        eigen_guard=config.tolerances["eigen_guard"],
    )
    return IndicatorEngine(sweep_cfg)


def _indicator_table(config: RunConfig, engine: IndicatorEngine, ts):
    """The indicator at every (direction, t, tau) of the config, from one
    engine sweep that computes the trace energies once per tau."""
    table = engine.sweep(config.directions, config.tau_grid, ts)
    if np.any(config.translation != 0.0):
        table = synth_translated(table, config.translation)
    return table


def _fmt_column(values, shape) -> list:
    """_fmt of `values` broadcast to `shape`, flattened in C order; each
    stored entry is formatted once."""
    strs = np.array([_fmt(x) for x in np.ravel(values).tolist()], dtype=object)
    return np.broadcast_to(strs.reshape(np.shape(values)), shape).ravel().tolist()


# ---------------------------------------------------------------------------
# subcommands


def cmd_sweep(config: RunConfig, out: str) -> int:
    engine = _engine_for(config)
    table = _indicator_table(config, engine, config.t_grid)
    shape, rhos = table.shape, table.rhos[:, :, None, None]
    columns = [_fmt_column(rhos[:, 0], shape), _fmt_column(rhos[:, 1], shape),
               _fmt_column(rhos[:, 2], shape), _fmt_column(table.taus, shape),
               _fmt_column(table.ts[:, None], shape),
               _fmt_column(table.mantissa.real, shape),
               _fmt_column(table.mantissa.imag, shape),
               _fmt_column(table.exponent, shape), _fmt_column(table.ln_abs(), shape),
               _fmt_column(table.tail, shape),
               np.broadcast_to(np.where(table.trusted, "1", "0"), shape).ravel().tolist()]
    lines = ["rho_x,rho_y,rho_z,tau,t,re_mantissa,im_mantissa,ln_exponent,"
             "log_abs_I,tail,trusted"]
    lines += map(",".join, zip(*columns))
    _atomic_write(os.path.join(out, "sweep.csv"), "\n".join(lines) + "\n")
    print(f"wrote {os.path.join(out, 'sweep.csv')} "
          f"({len(lines) - 1} rows, L={config.degree})")
    return EXIT_OK


def cmd_reconstruct(config: RunConfig, out: str) -> int:
    engine = _engine_for(config)
    estimates = estimate_support(_indicator_table(config, engine, [0.0]))

    truth = None
    if config.truth_radius is not None:
        radius, c = config.truth_radius, config.translation
        truth = lambda rho: radius + float(c @ rho)   # noqa: E731
    try:
        mesh, report = reconstruct_hull(estimates, truth_support=truth)
    except (Infeasible, Unbounded) as exc:
        print(f"hull failure: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY

    est_lines = ["rho_x,rho_y,rho_z,h_hat,ci_lo,ci_hi,residual"]
    for e in estimates:
        est_lines.append(",".join(map(_fmt, [
            *e.rho.tolist(), e.h_hat, 0.5 * e.fit_slope_ci[0],
            0.5 * e.fit_slope_ci[1], e.residual])))
    _atomic_write(os.path.join(out, "estimates.csv"), "\n".join(est_lines) + "\n")

    coords = [_fmt(x) for x in mesh.vertices.ravel().tolist()]
    off = [f"OFF\n{len(mesh.vertices)} {len(mesh.faces)} 0"]
    off += map(" ".join, zip(coords[0::3], coords[1::3], coords[2::3]))
    off += [f"3 {a} {b} {c}" for a, b, c in mesh.faces.tolist()]
    _atomic_write(os.path.join(out, "hull.off"), "\n".join(off) + "\n")

    rep = [
        "enclosure reconstruction report",
        f"problem: {config.problem}",
        f"directions: {report['n_directions']}",
        f"truncation degree: {config.degree}",
        f"hull volume: {_fmt(report['hull_volume'])}",
        f"hull centroid: "
        + " ".join(_fmt(float(x)) for x in report["centroid"]),
        f"max constraint violation: {_fmt(report['max_constraint_violation'])}",
    ]
    if "sup_support_error" in report:
        rep.append(f"sup support error: {_fmt(report['sup_support_error'])}")
        rep.append(f"mean support error: {_fmt(report['mean_support_error'])}")
    _atomic_write(os.path.join(out, "report.txt"), "\n".join(rep) + "\n")

    print("\n".join(rep))
    return EXIT_OK


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    # at exit, not now: a process that goes on after main() returns (a test
    # run) keeps its collector; one registration however often main() runs
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = argparse.ArgumentParser(
        prog="enclosure",
        description="Enclosure-method reconstruction for the Maxwell system")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("validate", "sweep", "reconstruct"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        if name != "validate":
            p.add_argument("--out", default=None,
                           help="output directory (default: output_dir)")

    p = sub.add_parser("selftest")
    p.add_argument("--inject", choices=["mk-sign-flip"], default=None,
                   help="deliberately corrupt M_k (the suites must fail)")

    args = parser.parse_args(argv)
    if args.command == "selftest":
        from .selftest import run_selftest   # oracle code, off the run path
        return EXIT_OK if run_selftest(inject=args.inject) else EXIT_SELFTEST

    try:
        config = load_config(args.config)
    except ConfigError as exc:
        for msg in exc.messages:
            print(f"config error: {msg}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "validate":
        print(json.dumps(config.resolved(), indent=2, sort_keys=True))
        return EXIT_OK

    out = args.out or config.output_dir
    command = cmd_sweep if args.command == "sweep" else cmd_reconstruct
    try:
        os.makedirs(out, exist_ok=True)
        return command(config, out)
    except _GUARD_ERRORS as exc:
        print(f"solver guard: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        # the commands touch the file system only to write their outputs
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
