"""Run configuration: JSON schema, validation, environment overrides.

A config fully determines a batch run; identical configs produce
byte-identical outputs.  Every physical constraint is checked here
before any solver work starts, with messages naming the offending key.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .forward import Geometry, Medium
from .indicator import auto_degree
from .recon import directions_axes26, directions_fibonacci

ENV_PREFIX = "ENCLOSURE_"

_DEFAULT_TOLERANCES = {
    "trace_tail": 1e-8,
    "eigen_guard": 1e-10,
}


@dataclass
class RunConfig:
    problem: str
    geometry: Geometry
    wave_number: float
    tau_grid: list
    t_grid: list
    directions: np.ndarray
    medium: Medium | None = None
    truncation_degree: int | None = None
    tolerances: dict = field(default_factory=lambda: dict(_DEFAULT_TOLERANCES))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    truth_radius: float | None = None
    output_dir: str = "out"

    @property
    def degree(self) -> int:
        if self.truncation_degree is not None:
            return self.truncation_degree
        return auto_degree(max(self.tau_grid), self.wave_number,
                           self.geometry.r_domain)

    def resolved(self) -> dict:
        """Plain-JSON view with the auto degree materialized."""
        out = {
            "problem": self.problem,
            "geometry": {"r_obstacle": self.geometry.r_obstacle,
                         "r_domain": self.geometry.r_domain},
            "wave_number": self.wave_number,
            "tau_grid": list(self.tau_grid),
            "t_grid": list(self.t_grid),
            "n_directions": int(len(self.directions)),
            "truncation_degree": self.degree,
            "tolerances": dict(self.tolerances),
            "translation": [float(c) for c in self.translation],
            "truth_radius": self.truth_radius,
            "output_dir": self.output_dir,
        }
        if self.medium is not None:
            out["medium"] = {"mu_contrast": self.medium.mu_contrast}
        return out


def _is_number(x) -> bool:
    """A finite JSON number; bools are not numbers here."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x))


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _grid_values(raw, path, errors):
    if isinstance(raw, dict):
        missing = {"start", "stop", "count"} - set(raw)
        if missing:
            errors.append(f"{path}: grid dict needs start/stop/count")
            return []
        if not (_is_number(raw["start"]) and _is_number(raw["stop"])):
            errors.append(f"{path}: start and stop must be finite numbers")
            return []
        if not _is_count(raw["count"]) or raw["count"] < 1:
            errors.append(f"{path}.count: must be an integer >= 1")
            return []
        return list(np.linspace(float(raw["start"]), float(raw["stop"]),
                                raw["count"]))
    if isinstance(raw, list) and raw:
        if not all(_is_number(v) for v in raw):
            errors.append(f"{path}: entries must be finite numbers")
            return []
        vals = [float(v) for v in raw]
        if sorted(vals) != vals:
            errors.append(f"{path}: values must be sorted ascending")
        return vals
    errors.append(f"{path}: must be a nonempty list or start/stop/count dict")
    return []


def _is_vector3(x) -> bool:
    return isinstance(x, list) and len(x) == 3 and all(map(_is_number, x))


def _directions(raw, errors):
    if raw is None:
        return directions_axes26()
    kind = raw.get("kind") if isinstance(raw, dict) else None
    if kind == "axes26":
        return directions_axes26()
    if kind == "fibonacci":
        n = raw.get("count", 0)
        if not _is_count(n) or n < 4:
            errors.append("directions.count: need an integer >= 4")
            return directions_axes26()
        return directions_fibonacci(n)
    if kind == "explicit":
        vecs = raw.get("vectors")
        if not isinstance(vecs, list) or len(vecs) < 1:
            errors.append("directions.vectors: need a nonempty list of 3-vectors")
            return directions_axes26()
        if not all(_is_vector3(v) for v in vecs):
            errors.append("directions.vectors: entries must be 3-vectors "
                          "of finite numbers")
            return directions_axes26()
        arr = np.asarray(vecs, dtype=float)
        norms = np.linalg.norm(arr, axis=1)
        if np.any(norms < 1e-12):
            errors.append("directions.vectors: zero vector not allowed")
            return directions_axes26()
        return arr / norms[:, None]
    errors.append("directions.kind: must be axes26 | fibonacci | explicit")
    return directions_axes26()


def parse_config(doc: dict) -> RunConfig:
    """Validate a raw JSON document; raises ConfigError listing every issue."""
    errors: list[str] = []
    problem = doc.get("problem")
    if problem not in ("pec", "transmission", "empty"):
        errors.append("problem: must be 'pec', 'transmission' or 'empty'")
        problem = "pec"

    geom_raw = doc.get("geometry", {})
    if not isinstance(geom_raw, dict):
        errors.append("geometry: must be an object")
        geom_raw = {}
    r_dom = geom_raw.get("r_domain")
    # an 'empty' run has no obstacle; the slot is filled but never used
    r_obs = geom_raw.get("r_obstacle",
                         0.5 * r_dom if problem == "empty"
                         and _is_number(r_dom) else None)
    geometry = None
    if not _is_number(r_obs) or not _is_number(r_dom):
        errors.append("geometry: r_obstacle and r_domain must be finite numbers")
    elif not (0.0 < r_obs < r_dom):
        errors.append("geometry: need 0 < r_obstacle < r_domain")
    else:
        geometry = Geometry(float(r_obs), float(r_dom))

    k = doc.get("wave_number")
    if not _is_number(k) or k <= 0.0:
        errors.append("wave_number: must be a positive number")
        k = 1.0

    medium = None
    if problem == "transmission":
        med_raw = doc.get("medium")
        if not isinstance(med_raw, dict) or "mu_contrast" not in med_raw:
            errors.append("medium.mu_contrast: required for the transmission problem")
        else:
            mu_c = med_raw["mu_contrast"]
            if not _is_number(mu_c):
                errors.append("medium.mu_contrast: must be a finite number")
            elif 1.0 - mu_c <= 0.0:
                errors.append("medium.mu_contrast: mu inside = 1 - mu_contrast "
                              "must be positive")
            elif abs(mu_c) < 1e-6:
                errors.append("medium.mu_contrast: needs |mu_contrast| >= 1e-6 "
                              "(no contrast, nothing to reconstruct)")
            else:
                medium = Medium(float(mu_c))

    tau_grid = _grid_values(doc.get("tau_grid"), "tau_grid", errors)
    if tau_grid and min(tau_grid) <= 0:
        errors.append("tau_grid: values must be positive")
    t_grid = _grid_values(doc.get("t_grid"), "t_grid", errors)

    directions = _directions(doc.get("directions"), errors)

    L = doc.get("truncation_degree")
    if L is not None and (not _is_count(L) or L < 1):
        errors.append("truncation_degree: must be a positive integer or null")
        L = None

    tol = dict(_DEFAULT_TOLERANCES)
    tol_raw = doc.get("tolerances", {})
    if not isinstance(tol_raw, dict):
        errors.append("tolerances: must be an object")
    else:
        for key, val in tol_raw.items():
            if key not in tol:
                errors.append(f"tolerances.{key}: unknown key")
            elif not _is_number(val) or val <= 0:
                errors.append(f"tolerances.{key}: must be a positive number")
            else:
                tol[key] = float(val)

    translation = np.zeros(3)
    tr_raw = doc.get("translation")
    if tr_raw is not None:
        if not _is_vector3(tr_raw):
            errors.append("translation: must be a 3-vector of finite numbers")
        else:
            translation = np.asarray(tr_raw, dtype=float)

    truth_radius = doc.get("truth_radius")
    if truth_radius is not None and (not _is_number(truth_radius)
                                     or truth_radius <= 0):
        errors.append("truth_radius: must be a positive number or null")
        truth_radius = None

    output_dir = doc.get("output_dir", "out")
    if not isinstance(output_dir, str):
        errors.append("output_dir: must be a string")
        output_dir = "out"

    known = {"problem", "geometry", "wave_number", "medium", "tau_grid",
             "t_grid", "directions", "truncation_degree", "tolerances",
             "translation", "truth_radius", "output_dir"}
    for key in doc:
        if key not in known:
            errors.append(f"{key}: unknown configuration key")

    if errors:
        raise ConfigError(errors)
    return RunConfig(problem=problem, geometry=geometry, wave_number=float(k),
                     tau_grid=tau_grid, t_grid=t_grid, directions=directions,
                     medium=medium, truncation_degree=L, tolerances=tol,
                     translation=translation,
                     truth_radius=(float(truth_radius) if truth_radius else None),
                     output_dir=output_dir)


def _apply_env_overrides(doc: dict, environ=None) -> dict:
    """ENCLOSURE_SECTION__KEY=json-value overrides, case-insensitive keys."""
    environ = environ if environ is not None else os.environ
    for name, raw in sorted(environ.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        path = [p.lower() for p in name[len(ENV_PREFIX):].split("__") if p]
        if not path:
            continue
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = doc
        for part in path[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"{name}: cannot override a non-object key")
        node[path[-1]] = value
    return doc


def load_config(path: str, environ=None) -> RunConfig:
    """Read, env-override and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {path} "
                          f"(byte {exc.start}: {exc.reason})")
    except OSError as exc:
        raise ConfigError(f"config file cannot be read: {path} "
                          f"({exc.strerror or exc})")
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    doc = _apply_env_overrides(doc, environ)
    return parse_config(doc)
