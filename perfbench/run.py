"""Benchmark of the `enclosure` CLI, run the way users run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --trace 1            # every workload, traced
    python3 perfbench/run.py --selfcheck          # every workload at a tiny size

Run from the root of a source checkout; the program is imported from
`src/`.  Each command runs in a fresh process, one at a time (a closed loop
with one client), with BLAS threading at its default.  A run repeats whole
rounds of its workload's commands until the next round would end after S
seconds, and reports medians over the rounds.  Then it checks the outputs
(check.py) and prints the run record and, as its last line, one JSON object
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every command a
second time with spans recorded (child.py) and reports the per-layer
metrics, the tracing overhead among them.

This parent process imports only the standard library: the peak RSS that
wait4 reports for a child includes the address space it replaced at exec,
which is the parent's, so the parent must stay small.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
CHECK = os.path.join(HERE, "check.py")
OUT = os.path.join(HERE, "out")
# a run, its checks included, must end well inside 180 s
RUN_DEADLINE_S = 165.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "samples_per_s": "1/s", "cpu_s": "s",
              "peak_rss_mb": "MB", "support_err_max": "length"}
PER_LAYER = {
    "startup.import_s": "s", "config.load_s": "s",
    "forward.solve_s": "s", "forward.calls": "count",
    "vsh.build_s": "s", "vsh.table_mb": "MB",
    "vsh.analyze_s": "s", "vsh.analyze_calls": "count", "vsh.analyze_ms_p50": "ms",
    "vsh.legendre_flop": "flop",
    "cgo.probe_s": "s", "cgo.probe_calls": "count",
    "indicator.trace_self_s": "s", "indicator.trace_calls": "count",
    "indicator.value_s": "s", "indicator.value_calls": "count",
    "indicator.trace_reuse": "ratio",
    "recon.fit_s": "s", "recon.fit_calls": "count", "recon.translate_s": "s",
    "recon.hull_s": "s", "cli.self_s": "s", "trace.overhead_s": "s",
}
TRACE_REUSE = {"sweep_desk": 0.5, "reconstruct_desk": 1.0, "reconstruct_fine": 1.0}


class MissingProgram(Exception):
    pass


def _cpu_counters():
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
        with open("/proc/loadavg", encoding="ascii") as fh:
            load = [float(v) for v in fh.read().split()[:3]]
    except (OSError, ValueError):
        return None
    return {"total": sum(fields), "steal": fields[7], "loadavg": load}


def run_record(before, after) -> dict:
    """Versions, cores, BLAS setting and host contention during the run."""
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None
    rec = {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k, "default") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    if before and after:
        ticks = after["total"] - before["total"]
        rec["steal_share"] = (after["steal"] - before["steal"]) / ticks if ticks else 0.0
        rec["loadavg_start"] = before["loadavg"]
        rec["loadavg_end"] = after["loadavg"]
    return rec


def _outputs_digest(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)) if os.path.isdir(path) else []:
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _failed_operations(cmd, rc: int) -> int:
    """Operations of `cmd` that produced no finite, trusted result."""
    if rc != 0:
        return cmd.operations
    name = "sweep.csv" if cmd.subcommand == "sweep" else "estimates.csv"
    try:
        with open(os.path.join(cmd.out, name), encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            rows = [ln.strip().split(",") for ln in fh if ln.strip()]
    except OSError:
        return cmd.operations
    if cmd.subcommand == "sweep":
        i, j = header.index("log_abs_I"), header.index("trusted")
        good = sum(1 for r in rows if math.isfinite(float(r[i])) and r[j] == "1")
    else:
        i = header.index("h_hat")
        good = sum(1 for r in rows if math.isfinite(float(r[i])))
    return cmd.operations - min(good, cmd.operations)


def run_command(cmd, trace: bool, deadline: float) -> dict:
    """Run one command in a fresh process; wall, CPU and peak RSS from wait4."""
    shutil.rmtree(cmd.out, ignore_errors=True)
    marks_path = cmd.out + (".trace.json" if trace else ".marks.json")
    log_path = cmd.out + (".trace.log" if trace else ".log")
    if os.path.exists(marks_path):
        os.remove(marks_path)
    env = {k: v for k, v in os.environ.items() if not k.startswith("ENCLOSURE_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    argv = [sys.executable, CHILD, marks_path, "1" if trace else "0", "--",
            cmd.subcommand, "--config", cmd.config, "--out", cmd.out]
    with open(log_path, "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        watchdog = threading.Timer(max(1.0, deadline - spawned), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        reaped = time.monotonic()
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    marks = None
    if rc == 0:
        with open(marks_path, encoding="utf-8") as fh:
            marks = json.load(fh)
    else:
        with open(log_path, encoding="utf-8") as fh:
            tail = fh.read()[-400:]
        print(f"{cmd.label}: exit {rc}: {tail.strip()}", file=sys.stderr)
    ready = marks["engine_ready"] if marks else []
    return {"rc": rc, "spawned": spawned, "reaped": reaped,
            "wall": reaped - spawned,
            "setup": ready[0] - spawned if ready else math.nan,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss * 1024 / layers.MB,
            "failed": _failed_operations(cmd, rc),
            "digest": _outputs_digest(cmd.out),
            "marks": marks}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    for rel in ("src/enclosure/cli.py",) + workloads.DESK_CONFIGS:
        if not os.path.isfile(os.path.join(ROOT, rel)):
            raise MissingProgram(f"{rel} not found under {ROOT}")
    out = os.path.join(OUT, name)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    cmds = workloads.commands(name, seed, ROOT, out, tiny=tiny)

    before = _cpu_counters()
    rounds, problems, digests = [], [], {}
    attempted = failed = 0
    while True:
        t0 = time.monotonic()
        plain, traced = [], []
        for cmd in cmds:
            for is_traced in (False, True) if trace else (False,):
                r = run_command(cmd, is_traced, deadline)
                (traced if is_traced else plain).append(r)
                attempted += cmd.operations
                failed += r["failed"]
                if r["rc"] == 0 and digests.setdefault(cmd.label, r["digest"]) != r["digest"]:
                    problems.append(f"{cmd.label}: outputs differ between runs")
        rounds.append({"plain": plain, "traced": traced})
        elapsed = time.monotonic() - started
        if elapsed + (time.monotonic() - t0) > seconds:
            break
    after = _cpu_counters()

    spec = os.path.join(out, "check.json")
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump({"commands": [{"label": c.label, "subcommand": c.subcommand,
                                 "config": c.config, "out": c.out,
                                 "operations": c.operations}
                                for c, r in zip(cmds, rounds[-1]["plain"])
                                if r["rc"] == 0]}, fh)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    try:
        check = subprocess.run([sys.executable, CHECK, spec], capture_output=True,
                               text=True, env=env, cwd=ROOT,
                               timeout=max(1.0, deadline - time.monotonic()))
        verdict = json.loads(check.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, IndexError, json.JSONDecodeError) as exc:
        verdict = {"ok": False, "problems": [f"check.py failed: {exc!r}"],
                   "support_err_max": math.nan}
    problems += verdict["problems"]

    samples = sum(c.samples for c in cmds)
    per_round = []
    for rnd in rounds:
        runs = rnd["plain"]
        wall = sum(r["wall"] for r in runs)
        setup = sum(r["setup"] for r in runs)
        per_round.append({"wall_s": wall, "setup_s": setup,
                          "samples_per_s": samples / (wall - setup),
                          "cpu_s": sum(r["cpu"] for r in runs),
                          "peak_rss_mb": max(r["rss_mb"] for r in runs)})
    e2e = {k: statistics.median(p[k] for p in per_round) for k in per_round[0]}
    e2e["support_err_max"] = verdict["support_err_max"]

    layer_rounds = []
    for rnd, p in zip(rounds, per_round):
        raws = []
        for r in rnd["traced"]:
            if r["marks"] is None:
                continue
            raw, trouble = layers.command_layers(r)
            problems += trouble
            raws.append(raw)
        if raws:
            layer_rounds.append(layers.round_layers(raws, p["wall_s"]))
    # counts repeat exactly from round to round; median_low keeps them whole
    per_layer = {k: (statistics.median if PER_LAYER[k] in ("s", "ms") else
                     statistics.median_low)([lr[k] for lr in layer_rounds])
                 for k in PER_LAYER} if layer_rounds else {}

    return {
        "workload": name, "seed": seed, "rounds": len(rounds),
        "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed,
        "end_to_end": e2e, "per_layer": per_layer, "per_round": per_round,
        "layer_rounds": layer_rounds, "checks": verdict,
        "record": run_record(before, after),
        "seconds_used": time.monotonic() - started,
    }


def result_line(res: dict, trace: bool) -> dict:
    units = PER_LAYER if trace else END_TO_END
    values = res["per_layer"] if trace else res["end_to_end"]
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": values.get(k, math.nan), "unit": u}
                        for k, u in units.items()}}


def selfcheck() -> int:
    """Run every workload once at a tiny size, traced, and check the result."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if declared != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    if {m["name"]: m["unit"] for m in bench["per_layer"]} != PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from run.py")
    if {w["name"] for w in bench["workloads"]} != set(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for name in workloads.WORKLOADS:
        res = run_workload(name, seed=1, seconds=0.0, trace=True, tiny=True)
        problems += [f"{name}: {p}" for p in res["problems"]]
        if res["failed"]:
            problems.append(f"{name}: {res['failed']} operations failed")
        for key, value in {**res["end_to_end"], **res["per_layer"]}.items():
            if not math.isfinite(value):
                problems.append(f"{name}: {key} = {value}")
        if any(not v > 0 for v in res["end_to_end"].values()):
            problems.append(f"{name}: an end-to-end metric is not positive")
        if len(res["per_layer"]) != len(PER_LAYER):
            problems.append(f"{name}: per-layer metrics missing")
        reuse = res["per_layer"].get("indicator.trace_reuse")
        if reuse != TRACE_REUSE[name]:
            problems.append(f"{name}: trace_reuse {reuse}, expected {TRACE_REUSE[name]}")
        print(f"{name}: {res['rounds']} round(s) in {res['seconds_used']:.1f} s, "
              f"support_err_max {res['end_to_end']['support_err_max']:.3g}")
    for p in problems:
        print(f"selfcheck: {p}", file=sys.stderr)
    print("selfcheck " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.selfcheck:
            return selfcheck()
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace))
            with open(os.path.join(OUT, name, "record.json"), "w", encoding="utf-8") as fh:
                json.dump(res, fh, indent=1)
            for p in res["problems"]:
                print(f"{name}: {p}", file=sys.stderr)
            print(f"run record {name}: " + json.dumps(res["record"]))
            print(json.dumps(result_line(res, bool(args.trace))))
    except MissingProgram as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
