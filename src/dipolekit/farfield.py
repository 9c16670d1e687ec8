"""Far-field pattern, directivity, and beamwidth from a solved current.

The E-plane cut is built by summing the node currents as short radiators
with the standard sin(theta) element factor and the axial phase term; by
symmetry the H-plane cut of a z-directed dipole is flat. The wavenumber is
that of current.f, the frequency the current was solved at, in its mesh's
medium. Directivity is integrated on the theta grid with the trapezoid rule.

The mesh's nodes mirror exactly about the feed node p (z_{p-i} = -z_{p+i}),
so the array factor sum_j I_j exp(j k z_j cos(theta)) is summed over mirrored
pairs (Schelkunoff 1943; Balanis ch. 4): I_p + sum_i (I_{p+i} + I_{p-i})
cos(phi_i) + j sum_i (I_{p+i} - I_{p-i}) sin(phi_i), phi_i = k z_{p+i}
cos(theta). The even part takes one real cosine table; the odd part, zero
for every solve_at current, adds its sine table only when it is not zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MeshError, SolverError
from .metrics import level_crossings
from .mom import CurrentDistribution, SegmentMesh, wavenumber


class DegeneratePattern(SolverError):
    """The sampled pattern's radiated power is not finite and > 0."""


#: polar sampling grid, degrees (open at the poles where E = 0); read-only,
#: because every E-plane cut shares it as its angles_deg
DEFAULT_THETA_DEG = np.arange(0.5, 180.0, 0.5)
DEFAULT_THETA_DEG.flags.writeable = False
#: cos(theta) and, as a column, sin(theta) on it: formed once, read-only
_COS_THETA = np.cos(np.radians(DEFAULT_THETA_DEG))
_SIN_THETA = np.sin(np.radians(DEFAULT_THETA_DEG))[:, None]
_COS_THETA.flags.writeable = False
_SIN_THETA.flags.writeable = False


@dataclass(frozen=True)
class PatternCut:
    """One principal-plane cut, normalized so max(field_db) == 0."""

    plane: str                 # "E" or "H"
    angles_deg: np.ndarray
    field_db: np.ndarray
    directivity_dbi: float
    hpbw_deg: float


def radiation_intensity(current: CurrentDistribution,
                        mesh: SegmentMesh) -> np.ndarray:
    """Unnormalized U(theta) on DEFAULT_THETA_DEG for the node currents on
    the mesh at current.f, in the medium of mesh.model; MeshError if the
    current was solved on another wire model or n (every build of one has
    one set of nodes) or does not have n nodes."""
    own, shape = current.mesh, current.currents.shape
    if (own.model, own.n, shape) != (mesh.model, mesh.n, (mesh.n,)):
        raise MeshError("current has %d nodes of %s, the mesh n = %d of %s"
                        % (current.currents.size, own.model, mesh.n,
                           mesh.model))
    k = wavenumber(current.f, mesh.model.eps_e)
    p = mesh.n // 2
    cur = np.asarray(current.currents, dtype=complex)
    upper, lower = cur[p + 1:], cur[p - 1::-1]   # I_{p+i}, I_{p-i}, i = 1..p
    phi = np.multiply.outer(_COS_THETA, k * mesh.nodes[p + 1:])
    # complex sums as (real, imag) columns of real matrix products
    af = np.cos(phi) @ (upper + lower).view(float).reshape(p, 2)
    af += (cur[p].real, cur[p].imag)
    odd = upper - lower
    if odd.any():
        sine = np.sin(phi) @ odd.view(float).reshape(p, 2)
        af[:, 0] -= sine[:, 1]   # j (a + jb) = -b + ja
        af[:, 1] += sine[:, 0]
    af *= _SIN_THETA   # the element factor
    return af[:, 0] ** 2 + af[:, 1] ** 2


def directivity_from_intensity(theta_deg: np.ndarray, u: np.ndarray) -> float:
    """D = 2 U_max / integral(U sin(theta) dtheta), trapezoid rule."""
    theta = np.radians(np.asarray(theta_deg, dtype=float))
    p_rad = np.trapezoid(u * np.sin(theta), theta)
    if not 0 < p_rad < np.inf:
        raise DegeneratePattern("radiated power must be finite and > 0, "
                                "got %g" % p_rad)
    return float(2.0 * np.max(u) / p_rad)


def hpbw_from_cut(angles_deg: np.ndarray, field_db: np.ndarray) -> float:
    """Width of the -3 dB region around the peak, linearly interpolated.

    Returns the full angular span of the grid when the pattern never
    drops 3 dB below its maximum (e.g. an omnidirectional cut).
    """
    angles = np.asarray(angles_deg, dtype=float)
    db = np.asarray(field_db, dtype=float)
    i_pk = int(np.argmax(db))
    level = float(db[i_pk]) - 3.0
    # the walk reads the levels as Python floats, as fractional_bandwidth's
    # does; it reads the angles only at the two edges
    left, right = level_crossings(angles, db.tolist(), i_pk, level,
                                  lambda v: v > level)
    if left is None or right is None:
        return float(angles[-1] - angles[0])
    return float(right - left)


def pattern_from_current(current: CurrentDistribution,
                         mesh: SegmentMesh) -> PatternCut:
    """E-plane cut at current.f with directivity and half-power beamwidth."""
    u = radiation_intensity(current, mesh)
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
    flat = np.zeros_like(phi)
    return PatternCut(plane="H", angles_deg=phi, field_db=flat,
                      directivity_dbi=float(directivity_dbi),
                      hpbw_deg=hpbw_from_cut(phi, flat))
