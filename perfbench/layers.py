"""Per-layer metrics from the spans of traced commands (standard library only).

A span's self time is its duration minus the durations of its child spans.
Each layer metric is summed over the commands of one workload round; the
spans and marks come from child.py, the spawn and reap times from run.py.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

MB = float(1 << 20)
# the top-level intervals must cover the traced wall time up to this share
ACCOUNTING_GAP = 0.02


def legendre_flop(L: int, n_theta: int) -> int:
    """Computed operation count of the per-order Legendre sums of one
    `VshTransform.analyze` call: for each order m, four products of the
    (L + 1 - max(1, |m|)) x n_theta real ALP blocks with complex vectors,
    at 4 flop (one real-by-complex multiply-add) per matrix entry."""
    rows = sum(L + 1 - max(1, abs(m)) for m in range(-L, L + 1))
    return 16 * rows * n_theta


def vsh_table_mb(L: int) -> float:
    """Size of the dense ALP tables P, dP, mP/sin: 3 (L+1)^3 doubles."""
    return 3 * (L + 1) ** 3 * 8 / MB


def command_layers(run) -> tuple[dict, list]:
    """Raw per-layer figures of one traced command, and accounting problems.

    `run` holds the spawn/reap times and the marks child.py wrote.
    """
    marks = run["marks"]
    spans = marks["spans"]
    problems = []
    child_dur = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_dur[parent] += end - start
            p = spans[parent]
            if start < p[2] or end > p[3]:
                problems.append(f"span {name} leaves its parent {p[0]}")
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    analyze_ms, flop = [], 0
    first_transform = {}
    trace_keys = set()
    for i, (name, parent, start, end, note) in enumerate(spans):
        dur = end - start
        own = dur - child_dur[i]
        if own < -1e-6:
            problems.append(f"span {name} has negative self time {own:.3g} s")
        self_time[name] += own
        calls[name] += 1
        if parent < 0 or spans[parent][0] != name:
            total[name] += dur
        if name == "vsh.analyze":
            analyze_ms.append(1e3 * dur)
            flop += legendre_flop(*note)
        elif name == "vsh.get_transform":
            first_transform.setdefault(note, dur)
        elif name == "indicator.trace":
            trace_keys.add(tuple(note))

    wall = run["reaped"] - run["spawned"]
    main0, main1 = marks["main"]
    imp0, imp1 = marks["import"]
    top = {"interp": marks["script"] - run["spawned"], "import": imp1 - imp0,
           "main": main1 - main0, "exit": run["reaped"] - main1}
    gap = wall - sum(top.values())
    if not abs(gap) <= ACCOUNTING_GAP * wall:
        problems.append(f"top-level spans leave {gap:.3f} s of {wall:.3f} s unaccounted")
    if abs(total["cli.main"] - top["main"]) > 1e-3:
        problems.append("cli.main span does not match the main interval")

    raw = {
        "wall_s": wall,
        "startup.import_s": top["import"],
        "config.load_s": total["config.load"],
        "forward.solve_s": total["forward.solve"],
        "forward.calls": calls["forward.solve"],
        "vsh.build_s": sum(first_transform.values()),
        "vsh.table_mb": max((vsh_table_mb(L) for L in first_transform), default=0.0),
        "vsh.analyze_s": total["vsh.analyze"],
        "vsh.analyze_calls": calls["vsh.analyze"],
        "vsh.analyze_ms": analyze_ms,
        "vsh.legendre_flop": flop,
        "cgo.probe_s": total["cgo.probe"],
        "cgo.probe_calls": calls["cgo.probe"],
        "indicator.trace_self_s": self_time["indicator.trace"],
        "indicator.trace_calls": calls["indicator.trace"],
        "indicator.trace_distinct": len(trace_keys),
        "indicator.value_s": total["indicator.value"],
        "indicator.value_calls": calls["indicator.value"],
        "recon.fit_s": total["recon.fit"],
        "recon.fit_calls": calls["recon.fit"],
        "recon.translate_s": total["recon.translate"],
        "recon.hull_s": total["recon.hull"],
        "cli.self_s": self_time["cli.main"],
        "top_level_s": top,
        "unaccounted_s": gap,
    }
    return raw, problems


SUMMED = ["startup.import_s", "config.load_s", "forward.solve_s", "forward.calls",
          "vsh.build_s", "vsh.analyze_s", "vsh.analyze_calls", "vsh.legendre_flop",
          "cgo.probe_s", "cgo.probe_calls", "indicator.trace_self_s",
          "indicator.trace_calls", "indicator.value_s", "indicator.value_calls",
          "recon.fit_s", "recon.fit_calls", "recon.translate_s", "recon.hull_s",
          "cli.self_s"]


def round_layers(raws: list, untraced_wall: float) -> dict:
    """Per-layer metrics of one workload round from its commands' raw figures."""
    out = {key: sum(r[key] for r in raws) for key in SUMMED}
    out["vsh.table_mb"] = max(r["vsh.table_mb"] for r in raws)
    ms = [v for r in raws for v in r["vsh.analyze_ms"]]
    out["vsh.analyze_ms_p50"] = statistics.median(ms) if ms else 0.0
    calls = out["indicator.trace_calls"]
    out["indicator.trace_reuse"] = (sum(r["indicator.trace_distinct"] for r in raws)
                                    / calls if calls else 0.0)
    out["trace.overhead_s"] = sum(r["wall_s"] for r in raws) - untraced_wall
    return out
