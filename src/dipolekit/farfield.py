"""Far-field pattern, directivity, and beamwidth from a solved current.

The E-plane cut is built by summing the node currents as short radiators
with the standard sin(theta) element factor and the axial phase term; by
symmetry the H-plane cut of a z-directed dipole is flat. The wavenumber is
that of the medium of the wire model the mesh was built for. Directivity is
integrated on the theta grid with the trapezoid rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MeshError, SolverError
from .metrics import level_crossings
from .mom import CurrentDistribution, SegmentMesh, wavenumber


class DegeneratePattern(SolverError):
    """The sampled pattern carries no power."""


#: polar sampling grid, degrees (open at the poles where E = 0); read-only,
#: because every E-plane cut shares it as its angles_deg
DEFAULT_THETA_DEG = np.arange(0.5, 180.0, 0.5)
DEFAULT_THETA_DEG.flags.writeable = False


@dataclass(frozen=True)
class PatternCut:
    """One principal-plane cut, normalized so max(field_db) == 0."""

    plane: str                 # "E" or "H"
    angles_deg: np.ndarray
    field_db: np.ndarray
    directivity_dbi: float
    hpbw_deg: float


def radiation_intensity(current: CurrentDistribution, mesh: SegmentMesh,
                        f: float) -> np.ndarray:
    """Unnormalized U(theta) on DEFAULT_THETA_DEG for the node currents on
    the mesh, in the medium of mesh.model; MeshError if the current was
    solved on a mesh with another node count."""
    if current.currents.shape != (mesh.n,):
        raise MeshError("current has %d nodes but the mesh has n = %d"
                        % (current.currents.size, mesh.n))
    k = wavenumber(f, mesh.model.eps_e)
    theta = np.radians(DEFAULT_THETA_DEG)
    phase = np.exp(1j * k * np.outer(np.cos(theta), mesh.nodes))
    e_field = np.sin(theta) * (phase @ current.currents)
    return np.abs(e_field) ** 2


def directivity_from_intensity(theta_deg: np.ndarray, u: np.ndarray) -> float:
    """D = 2 U_max / integral(U sin(theta) dtheta), trapezoid rule."""
    theta = np.radians(np.asarray(theta_deg, dtype=float))
    p_rad = np.trapezoid(u * np.sin(theta), theta)
    if p_rad <= 0:
        raise DegeneratePattern("pattern has no radiated power")
    return float(2.0 * np.max(u) / p_rad)


def hpbw_from_cut(angles_deg: np.ndarray, field_db: np.ndarray) -> float:
    """Width of the -3 dB region around the peak, linearly interpolated.

    Returns the full angular span of the grid when the pattern never
    drops 3 dB below its maximum (e.g. an omnidirectional cut).
    """
    angles = np.asarray(angles_deg, dtype=float)
    db = np.asarray(field_db, dtype=float)
    i_pk = int(np.argmax(db))
    level = db[i_pk] - 3.0
    left, right = level_crossings(angles, db, i_pk, level, lambda v: v > level)
    if left is None or right is None:
        return float(angles[-1] - angles[0])
    return float(right - left)


def pattern_from_current(current: CurrentDistribution, mesh: SegmentMesh,
                         f: float) -> PatternCut:
    """E-plane cut with directivity and half-power beamwidth."""
    u = radiation_intensity(current, mesh, f)
    d = directivity_from_intensity(DEFAULT_THETA_DEG, u)
    peak = np.max(u)   # > 0: directivity_from_intensity refused p_rad <= 0
    field_db = 10.0 * np.log10(np.maximum(u, peak * 1e-30) / peak)
    return PatternCut(plane="E", angles_deg=DEFAULT_THETA_DEG,
                      field_db=field_db,
                      directivity_dbi=float(10.0 * np.log10(d)),
                      hpbw_deg=hpbw_from_cut(DEFAULT_THETA_DEG, field_db))


def h_plane_cut(directivity_dbi: float) -> PatternCut:
    """Azimuth cut at theta = 90 deg over 0..359 deg: flat by axial symmetry."""
    phi = np.arange(0.0, 360.0, 1.0)
    return PatternCut(plane="H", angles_deg=phi, field_db=np.zeros_like(phi),
                      directivity_dbi=float(directivity_dbi),
                      hpbw_deg=float(phi[-1] - phi[0]))
