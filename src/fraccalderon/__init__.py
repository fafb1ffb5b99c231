"""Numerical laboratory for the fractional Schrodinger exterior-value problem,
its Dirichlet-to-Neumann maps, exterior control, and potential reconstruction
from partial exterior measurements."""

__version__ = "0.1.0"

from .grid import Grid, GridFunction, Region, build_grid
from .fracop import FracOperator, apply_spectral, assemble_quadrature, cns_constant

__all__ = [
    "Grid", "GridFunction", "Region", "build_grid",
    "FracOperator", "apply_spectral", "assemble_quadrature", "cns_constant",
    "__version__",
]
