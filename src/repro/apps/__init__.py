"""Application proxies: the workloads the methodology is evaluated on.

Real SPECFEM3D_GLOBE and UH3D runs at 96–8192 cores are not available
here; these proxies stand in for them (see DESIGN.md's substitution
table).  Each proxy derives per-rank programs (basic blocks with access
patterns and op counts) and every rank's events (halo exchanges,
collectives), as numpy columns over all ranks, from an explicit domain
decomposition, so *how every feature scales with
core count is an emergent property of the decomposition*, not something
hand-coded to match a canonical form — the extrapolation is fitted
against honest curves.

- :class:`~repro.apps.specfem3d.SpecFEM3DProxy` — spectral-element
  seismic-wave proxy (structured 3-D grid, dense element kernels,
  surface-dominated halo exchange, absorbing-boundary imbalance).
- :class:`~repro.apps.uh3d.UH3DProxy` — hybrid particle-in-cell
  magnetosphere proxy (gather/scatter-dominated, spatially non-uniform
  particle density driving load imbalance).
- :class:`~repro.apps.jacobi.JacobiProxy` — minimal 7-point stencil
  teaching app used by the quickstart and tests.
"""

from repro.apps.base import AppModel, ScalingMode
from repro.apps.decomposition import CartesianDecomposition, factor3
from repro.apps.jacobi import JacobiProxy
from repro.apps.specfem3d import SpecFEM3DProxy
from repro.apps.uh3d import UH3DProxy
from repro.apps.registry import get_app, APP_BUILDERS

__all__ = [
    "AppModel",
    "ScalingMode",
    "CartesianDecomposition",
    "factor3",
    "JacobiProxy",
    "SpecFEM3DProxy",
    "UH3DProxy",
    "get_app",
    "APP_BUILDERS",
]
