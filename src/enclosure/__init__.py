"""Enclosure-method reconstruction for the time-harmonic Maxwell system.

Simulates boundary impedance data for spherical obstacles (perfectly
conducting or permeability-contrast), probes it with complex geometrical
optics solutions, and recovers the obstacle's convex hull from the
exponential dichotomy of the indicator functional.

The package imports nothing: import from its submodules, e.g.
`from enclosure.forward import solution_pec`.  So `enclosure.cli` runs
before numpy loads and can choose the BLAS thread count of a command.
"""

__version__ = "0.1.0"
