"""Workloads of the benchmark: which `enclosure` commands run on which configs.

Standard library only, because the benchmark's parent process stays lean
(see run.py).  The program receives nothing but the config files named here;
every seeded input is generated in this module from the workload seed.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

DESK_CONFIGS = ("configs/pec_ball.json", "configs/transmission_ball.json")

WORKLOADS = {
    "reconstruct_desk": "the everyday run: reconstruct on both shipped configs; "
                        "import, assembly and per-sample cost show, t-sharing and hull do not",
    "sweep_desk": "sweep on both shipped configs: every trace computed once per t "
                  "and the largest outputs; no fit and no hull",
    "reconstruct_fine": "reconstruct at L=96 on 48 seeded Fibonacci directions with a "
                        "seeded translation: O(L^3) analysis, tables, fit and hull weigh",
}

# reconstruct_fine make-up; PEC because the transmission solver turns to NaN
# from degree 82 (see CHANGES.md)
FINE_DIRECTIONS = 48
FINE_TAU = {"start": 12.5, "stop": 50.0, "count": 7}
FINE_DEGREE = 96
FINE_SHIFT = 0.2          # translation components are uniform in [-0.2, 0.2]

# self-check sizes: the same commands on grids small enough to run in seconds
TINY_TAU = {"start": 10.0, "stop": 30.0, "count": 5}
TINY_SWEEP_DIRECTIONS = {"kind": "fibonacci", "count": 8}
TINY_FINE_DIRECTIONS = 32
TINY_FINE_DEGREE = 64


@dataclass
class Command:
    """One `enclosure` invocation: its own process, config and output directory."""

    label: str
    subcommand: str           # "sweep" | "reconstruct"
    config: str               # path of the config file the program reads
    out: str                  # output directory passed with --out
    doc: dict                 # the config as the program reads it

    @property
    def n_directions(self) -> int:
        d = self.doc.get("directions") or {"kind": "axes26"}
        if d["kind"] == "axes26":
            return 26
        if d["kind"] == "fibonacci":
            return int(d["count"])
        return len(d["vectors"])

    @property
    def taus(self) -> list:
        g = self.doc["tau_grid"]
        if isinstance(g, list):
            return [float(v) for v in g]
        n = int(g["count"])
        lo, hi = float(g["start"]), float(g["stop"])
        return [lo + (hi - lo) * i / (n - 1) for i in range(n)] if n > 1 else [lo]

    @property
    def samples(self) -> int:
        """Indicator samples the command computes."""
        per_t = self.n_directions * len(self.taus)
        return per_t * len(self.doc["t_grid"]) if self.subcommand == "sweep" else per_t

    @property
    def operations(self) -> int:
        """Benchmark operations: samples for sweep, support estimates for reconstruct."""
        return self.samples if self.subcommand == "sweep" else self.n_directions


def fibonacci(n: int) -> list:
    """Spiral points on S^2, the same rule as `directions: fibonacci`."""
    golden = math.pi * (3.0 - math.sqrt(5.0))
    out = []
    for i in range(n):
        z = 1.0 - 2.0 * (i + 0.5) / n
        r = math.sqrt(max(0.0, 1.0 - z * z))
        phi = golden * (i + 0.5)
        out.append((r * math.cos(phi), r * math.sin(phi), z))
    return out


def random_rotation(rng: random.Random) -> list:
    """Uniformly distributed rotation matrix from a random unit quaternion."""
    w, x, y, z = (rng.gauss(0.0, 1.0) for _ in range(4))
    n = math.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / n, x / n, y / n, z / n
    return [[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]]


def fine_config(seed: int, tiny: bool = False) -> dict:
    """The reconstruct_fine config for one seed: rotation and translation vary."""
    rng = random.Random(seed)
    rot = random_rotation(rng)
    shift = [rng.uniform(-FINE_SHIFT, FINE_SHIFT) for _ in range(3)]
    n = TINY_FINE_DIRECTIONS if tiny else FINE_DIRECTIONS
    dirs = [[sum(rot[i][j] * v[j] for j in range(3)) for i in range(3)]
            for v in fibonacci(n)]
    return {
        "problem": "pec",
        "geometry": {"r_obstacle": 0.5, "r_domain": 1.0},
        "wave_number": 1.0,
        "tau_grid": dict(TINY_TAU if tiny else FINE_TAU),
        "t_grid": [0.3, 0.7],
        "directions": {"kind": "explicit", "vectors": dirs},
        "truncation_degree": TINY_FINE_DEGREE if tiny else FINE_DEGREE,
        "translation": shift,
        "truth_radius": 0.5,
    }


def _write(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    return path


def commands(workload: str, seed: int, root: str, out: str,
             tiny: bool = False) -> list:
    """The commands of one round of `workload`; generated configs go under `out`."""
    if workload not in WORKLOADS:
        raise KeyError(workload)
    if workload == "reconstruct_fine":
        doc = fine_config(seed, tiny)
        path = _write(os.path.join(out, "fine.json"), doc)
        return [Command("fine", "reconstruct", path, os.path.join(out, "fine"), doc)]
    cmds = []
    sub = "sweep" if workload == "sweep_desk" else "reconstruct"
    for rel in DESK_CONFIGS:
        path = os.path.join(root, rel)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        label = os.path.splitext(os.path.basename(rel))[0]
        if tiny:
            doc["tau_grid"] = dict(TINY_TAU)
            if sub == "sweep":
                doc["directions"] = dict(TINY_SWEEP_DIRECTIONS)
            path = _write(os.path.join(out, label + ".json"), doc)
        cmds.append(Command(label, sub, path, os.path.join(out, label), doc))
    return cmds
