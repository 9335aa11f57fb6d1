"""Enclosure-method reconstruction for the time-harmonic Maxwell system.

Simulates boundary impedance data for spherical obstacles (perfectly
conducting or permeability-contrast), probes it with complex geometrical
optics solutions, and recovers the obstacle's convex hull from the
exponential dichotomy of the indicator functional.
"""

from .cgo import CgoMode, CgoProbe, build_probe, eval_cgo
from .forward import (Geometry, ImpedanceOperator, Medium, solution_empty,
                      solution_pec, solution_transmission)
from .indicator import (IndicatorEngine, IndicatorSample, SweepConfig,
                        indicator_value)
from .recon import (SupportEstimate, classify_regime, estimate_support,
                    reconstruct_hull, synth_translated)

__version__ = "0.1.0"

__all__ = [
    "CgoMode", "CgoProbe", "build_probe", "eval_cgo",
    "Geometry", "Medium", "ImpedanceOperator",
    "solution_empty", "solution_pec", "solution_transmission",
    "IndicatorEngine", "IndicatorSample", "SweepConfig", "indicator_value",
    "SupportEstimate", "classify_regime", "estimate_support",
    "synth_translated", "reconstruct_hull",
]
