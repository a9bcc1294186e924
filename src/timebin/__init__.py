"""Trotterized bosonic lattice simulation on time-bin waveguide photonics."""

__version__ = "0.1.0"

from .subtraction import derive_quantities
