"""Thin-wire method-of-moments solver for a center-fed strip dipole.

The strip is reduced to an equivalent round wire (a = W/4) embedded in a
homogeneous effective medium. Currents are expanded in overlapping
piecewise-sinusoidal basis functions on a uniform node grid with the tips
pinned to zero; Galerkin testing against the same functions yields a
symmetric Toeplitz system, driven by a 1 V delta gap at the center node, so
Z_in = 1/I_feed. The radiated-field kernel e^{-jkR}/(4*pi*R) is integrated
with an arcsinh substitution around each of the three kernel centers of a
basis function, which keeps the quadrature accurate even when the node
spacing approaches the wire radius. The three centers are shifted views of
one set of n+2 integrals per test half, and both halves read one table of
n+3 source intervals, so e^{-jkR} is evaluated once per interval node: 16
Gauss-Legendre nodes on the five intervals nearest the source knot, whose
span in arcsinh(z/a) grows with h/a, and 8 on each other one, whose span
stays under ln(4/3). That geometry does not depend on frequency. The mesh
carries it along with the wire model it was built for (length, radius and
medium), so each assembly takes only the mesh and a frequency, evaluates
the k-dependent factors and returns the matrix's first column. The matrix is
also centrosymmetric and the center feed excites only its even mode, so
each solve folds that column to the (n+1)/2 even-mode unknowns. The
matrix is complex symmetric, so the condition guard proves the limit on
the real part of the column after a small phase turn, with a margin for
rounding: by one real FFT of the circulant that embeds it or, where that
falls short, by one real Cholesky test of its even and odd blocks. What
it cannot prove is refused. solve_at(mesh, f), the one path from a mesh to
its currents, also refuses segments over lambda_e/4, where the guard can fail.
solve_band(mesh, freqs, z0) is the one band path: solve_at at each frequency.
What the mesh and the solve take from n alone, the quadrature layout and
the guard's weights, FFT length, shift and margin coefficients and e_p, is
formed in one place, _per_n, once per n and shared read-only, so each
frequency does only its k-dependent work.

No n x n matrix is built: above n = 64 the largest block is one solve's
workspace of B = 32(p+1)^2 bytes, half a dense A. The guard runs first.
On the certified path it reads only O(n) vectors: neither the real fold
nor the Cholesky's input copy and factor (B/4, B/2) are made, and the LU
reads the complex T + H in the workspace's first half and adds its copy
(B/2). Where the Cholesky test runs, it factors the real even and odd
blocks in the second half, and its copies are freed before the LU. So a
solve stays under 2 B, glibc's heap trim threshold once B is freed. A
separate real buffer, or one more O(n^2) copy, moves that threshold or
hands the heap back, for the next frequency to fault in again; so does a
workspace of the LU's block alone, which measured slower on fine meshes.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .design import C_MM_PER_S, DipoleGeometry, Substrate, check_at_least, \
    check_frequency, check_positive, check_restrictions, eps_eff_microstrip
from .errors import MeshError, SolverError
from .metrics import DEFAULT_Z0, SweepResult, check_z0

#: free-space wave impedance, ohm
ETA0 = 376.730313668

#: largest automatic segment count (thin-wire regime), see default_segments
DEFAULT_N_SEGMENTS = 41

MIN_SEGMENTS = 11

#: largest segment count: a solve holds about 8 (n+1)^2 bytes of folded
#: blocks (128 MB here), and more ends in a MemoryError mid-solve; a fixed
#: limit, not an option, so one place bounds what a solve may allocate
MAX_SEGMENTS = 4001

#: most frequencies one sweep may hold
MAX_GRID_POINTS = 1_000_000

#: Gauss-Legendre rules on [-1, 1], correctly rounded and mirrored from
#: their positive nodes and weights: 16 points (_X8, _W8) on the near
#: source intervals, 8 points (_X4, _W4) on the far ones
_X8 = np.array((0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
                0.6178762444026438, 0.755404408355003, 0.8656312023878318,
                0.9445750230732326, 0.9894009349916499))
_W8 = np.array((0.1894506104550685, 0.18260341504492358, 0.16915651939500254,
                0.14959598881657674, 0.12462897125553388, 0.09515851168249279,
                0.062253523938647894, 0.027152459411754096))
_XQ = np.concatenate((-_X8[::-1], _X8))
_WQ = np.concatenate((_W8[::-1], _W8))
_X4 = np.array((0.1834346424956498, 0.525532409916329, 0.7966664774136267,
                0.9602898564975363))
_W4 = np.array((0.362683783378362, 0.31370664587788727, 0.22238103445337448,
                0.10122853629037626))
_XF = np.concatenate((-_X4[::-1], _X4))
_WF = np.concatenate((_W4[::-1], _W4))

#: source intervals [mh, (m+1)h] that take the 16-point rule: m = -2..2,
#: knots in [-2h, 3h]; each further one spans < ln(4/3) in arcsinh(z/a)
_NEAR = 5

#: relative condition limit before the solve is refused
_COND_LIMIT = 1e12

_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2

#: squared Frobenius norms _certified judges unscaled: absolute rounding
#: stays under its margin, and no sum or Cholesky entry is inf or nan
_SQUARED_NORM_RANGE = (np.finfo(float).tiny / _UNIT_ROUNDOFF,
                       _UNIT_ROUNDOFF / np.finfo(float).tiny)

#: e^{i theta}, theta = 5 degrees: _certified's phase turn, under which
#: resistance and capacitive reactance both add to the real part
_ROTATION = np.exp(1j * np.pi / 36)

_RESIDUAL_LIMIT = 1e-8


@dataclass(frozen=True)
class WireModel:
    """Equivalent round-wire reduction of a strip dipole."""

    total_length: float   # mm
    radius: float         # mm
    eps_e: float = 1.0

    def __post_init__(self):
        check_positive("total_length", self.total_length)
        check_positive("radius", self.radius)
        check_at_least("eps_e", self.eps_e, 1.0)
        if self.total_length <= 20.0 * self.radius:
            raise ValueError("thin-wire model needs total_length > 20*radius "
                             "(L=%g, a=%g)" % (self.total_length, self.radius))


@dataclass(frozen=True, eq=False)
class SegmentMesh:
    """Uniform segmentation of the axis of the wire `model`.

    `model` is the wire the mesh was built for: its length, radius and
    medium are what assembly and the far field use. The current expansion
    lives on the n interior nodes `nodes` (spacing h = L/(n+1)), whose end
    half-bases terminate exactly at the wire tips.

    The kernel quadrature is laid out once per mesh, over the n+3 source
    intervals i = 0..n+2 between knots mh, m = i - 2, in subrows of 8
    Gauss-Legendre nodes in t = asinh(z/a). For m >= 1 interval i spans t
    by less than ln((m+1)/m), whatever the radius, so the _NEAR intervals
    with knots in [-2h, 3h] take the 16-point rule as two subrows (its
    left and right nodes) and each other one, spanning less than ln(4/3),
    one subrow of the 8-point rule. quad_r holds the reduced distance R
    and quad_w the weights, both (n+8, 8), one subrow per row in interval
    order; flattened, interval i's terms start at quad_starts[i].
    quad_sine_arg, (2, n+8, 8), holds h - |z - z'| at each node for the two
    test halves that can cover its interval [mh, (m+1)h]: z - mh for the
    lower, [0], whose test node z' is (m+1)h, and (m+1)h - z for the upper,
    [1], whose z' is mh. Separation i = 0..n+1, d = (i - 1)h = (j - c)h
    from source knot c in {-1, 0, +1} to column entry j, integrates the
    lower test half over interval i and the upper over interval i + 1.
    """

    model: WireModel
    n: int
    nodes: np.ndarray
    feed_index: int
    quad_sine_arg: np.ndarray = field(repr=False)
    quad_r: np.ndarray = field(repr=False)
    quad_w: np.ndarray = field(repr=False)
    quad_starts: np.ndarray = field(repr=False)


def strip_to_wire(W: float) -> float:
    """Equivalent round-wire radius of a flat strip: a = W/4."""
    check_positive("W", W)
    return W / 4.0


def max_segments(total_length: float, radius: float) -> int:
    """Largest odd segment count keeping delta = L/n >= radius."""
    n = int(total_length / radius)
    if n % 2 == 0:
        n -= 1
    return n


def default_segments(total_length: float, radius: float) -> int:
    """Segment count for good kernel accuracy: node spacing >= 2*radius.

    Falls back to MIN_SEGMENTS for very fat wires; capped at
    DEFAULT_N_SEGMENTS.
    """
    n = int(min(total_length / (2.0 * radius), DEFAULT_N_SEGMENTS + 1)) - 1
    if n % 2 == 0:
        n -= 1
    return max(n, MIN_SEGMENTS)


def build_mesh(model: WireModel, n: int | None = None) -> SegmentMesh:
    """Uniform odd-count mesh (default_segments if n is None), center feed."""
    if not np.isfinite(model.total_length / model.radius):
        raise MeshError("L/a overflows (L=%g mm, a=%g mm)"
                        % (model.total_length, model.radius))
    if n is None:
        n = default_segments(model.total_length, model.radius)
    if not isinstance(n, numbers.Integral):   # a NumPy integer is one
        raise MeshError("segment count must be an integer, got %r" % (n,))
    n = int(n)
    if n % 2 == 0:
        raise MeshError("segment count must be odd, got %d" % n)
    if n < MIN_SEGMENTS:
        raise MeshError("segment count must be >= %d, got %d" % (MIN_SEGMENTS, n))
    if n > MAX_SEGMENTS:
        raise MeshError("segment count must be <= %d, got %d" % (MAX_SEGMENTS, n))
    L, a = model.total_length, model.radius
    delta = L / n
    if delta < a:
        raise MeshError("delta = %.4g mm < radius %.4g mm; use n <= %d"
                        % (delta, a, max_segments(L, a)))
    h = L / (n + 1)
    left, offset, weight, starts, centred = _per_n(n)[0]
    lo = np.arcsinh(left * (h / a))   # each subrow's interval in t
    span = np.arcsinh((left + 1.0) * (h / a)) - lo
    t = offset * span
    t += lo
    z = np.sinh(t)
    z *= a
    # per test half, the distance from its outer knot: z - mh for the lower
    # half over [mh, (m+1)h] and (m+1)h - z for the upper
    sine_arg = np.empty((2,) + z.shape)
    np.subtract(z, left * h, out=sine_arg[0])
    np.subtract(h, sine_arg[0], out=sine_arg[1])
    r = np.cosh(t)
    r *= a
    return SegmentMesh(model=model, n=n, nodes=centred * h,
                       feed_index=(n - 1) // 2, quad_sine_arg=sine_arg,
                       quad_r=r, quad_w=weight * span, quad_starts=starts)


@functools.lru_cache(maxsize=16)
def _per_n(n: int) -> tuple:
    """What the code takes from n alone, shared read-only by every mesh and
    solve of that n (a few meshes per wire in a study or an optimizer).
    build_mesh's layout: per subrow, its interval's left knot as a multiple
    m of h (an (n+8, 1) column) and its nodes (1 + x)/2 and weights w/2 as
    fractions of the interval's span in t; each interval's first term in a
    flattened half of the table (8 per subrow); and the node multiples. The
    solve's constants: _certified's weights of |c_k|^2 in s^2 (n, 2(n-1),
    ..., 2), FFT length G = 2^k >= 2n - 1, shift coefficient 1/L + 2(m+1)^1.5
    u and margin coefficient 64(k+2) sqrt(G) u, each formed as its proof
    states it; and solve_current's right-hand side e_p, p = (n-1)/2."""
    intervals = np.arange(n + 3)
    # each near interval takes the 16-point rule as two subrows
    lower = np.concatenate((np.repeat(intervals[:_NEAR], 2),
                            intervals[_NEAR:]))
    x = np.concatenate((np.tile(_XQ, _NEAR), np.tile(_XF, n + 3 - _NEAR)))
    w = np.concatenate((np.tile(_WQ, _NEAR), np.tile(_WF, n + 3 - _NEAR)))
    layout = ((lower - 2.0)[:, None], (1.0 + x.reshape(-1, 8)) / 2.0,
              w.reshape(-1, 8) / 2.0, 8 * np.searchsorted(lower, intervals),
              np.arange(n) - (n - 1) / 2.0)
    m = (n + 1) // 2
    weights = np.arange(2.0 * n, 0.0, -2.0)   # A holds c_k 2(n - k) times,
    weights[0] = n                            # and c_0 n times
    k = (2 * n - 2).bit_length()
    e_p = np.zeros(m, dtype=complex)
    e_p[-1] = 1.0
    for array in layout + (weights, e_p):
        array.flags.writeable = False
    return layout, (weights, 1 << k,
                    _COND_LIMIT ** -1 + 2 * (m + 1) ** 1.5 * _UNIT_ROUNDOFF,
                    64 * (k + 2) * 2.0 ** (k / 2) * _UNIT_ROUNDOFF, e_p)


def wavenumber(f: float, eps_e: float) -> float:
    """k in 1/mm inside the effective medium, for f in (0, inf) Hz."""
    if not 0 < f < math.inf:   # one call fewer per band sample when f is good
        check_frequency(f)
    return 2.0 * math.pi * f * math.sqrt(eps_e) / C_MM_PER_S


def assemble_system(mesh: SegmentMesh, f: float) -> np.ndarray:
    """First column col of the complex Galerkin matrix of mesh.model at f:
    the matrix is symmetric Toeplitz, A[i, j] = col[|i - j|]."""
    model = mesh.model
    k = wavenumber(f, model.eps_e)
    if not math.isfinite(k):
        raise SolverError("wavenumber is not finite")
    # the largest R is quad_r[-1, -1]; Python floats overflow to inf, unwarned
    if math.isinf(k * float(mesh.quad_r[-1, -1])):
        raise SolverError("k*R overflows")
    h = model.total_length / (mesh.n + 1)
    sk = math.sin(k * h)
    # col's scale in Python floats (inf unwarned); a zero divisor would raise
    if sk * sk == 0.0 or not math.isfinite(scale := ETA0 / math.sqrt(
            model.eps_e) / (4.0 * math.pi * sk * sk)):
        raise SolverError("sin(kh) underflows")
    # field of one basis = three spherical-wave centers at its knots; each
    # test half sums its terms per source interval, and separation i takes
    # the lower half over interval i and the upper over interval i + 1
    e = np.multiply(-1j * k, mesh.quad_r)
    np.exp(e, out=e)
    e *= mesh.quad_w
    sine = np.multiply(k, mesh.quad_sine_arg)
    terms = np.multiply(np.sin(sine, out=sine), e)
    halves = np.add.reduceat(terms.reshape(2, -1), mesh.quad_starts, axis=1)
    s = halves[0, :-1] + halves[1, 1:]
    col = s[1:-1] * (-2.0 * math.cos(k * h))
    col += s[2:]
    col += s[:-2]
    col *= 1j * scale
    return col


@dataclass(frozen=True, eq=False)
class CurrentDistribution:
    """Complex node currents of a 1 V delta-gap solve on `mesh` at `f` Hz."""

    currents: np.ndarray
    mesh: SegmentMesh
    f: float

    @property
    def feed_current(self) -> complex:
        return complex(self.currents[self.mesh.feed_index])


def _fold(col: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Blocks T + H and T - H of A[i, j] = col[|i - j|] about its center p.

    T = col[|i - j|] and H = col[n-1-i-j] over i, j <= p are two strided
    views of one ramp. With Q the orthogonal symmetry transform (u_i +-
    u_{n-1-i})/sqrt(2), Q^T A Q has the diagonal blocks S^-1 (T + H) S^-1
    and T - H, S = diag(1, ..., 1, sqrt(2)), so sigma(A) is the union of
    their singular values. The centre row and column of T + H hold 2
    col[|p - j|]; those of T - H are exactly zero, a pad beside the p x p
    odd block. The blocks go into out, a (2, p+1, p+1) buffer of col's
    dtype, and an out of one block gets only T + H.
    """
    n = col.size
    p = (n - 1) // 2
    ramp = np.concatenate((col[p:0:-1], col))   # ramp[p+k] = col[|k|]
    s = ramp.itemsize
    toeplitz = np.ndarray(out.shape[1:], ramp.dtype, ramp, p * s, (-s, s))
    hankel = np.ndarray(out.shape[1:], ramp.dtype, ramp, (n + p - 1) * s, (-s, -s))
    np.add(toeplitz, hankel, out=out[0])
    if out.shape[0] == 2:
        np.subtract(toeplitz, hankel, out=out[1])
    return out


def _certified(col: np.ndarray, out: np.ndarray) -> bool:
    """Prove that A[i, j] = col[|i - j|] has cond(A) <= _COND_LIMIT.

    Let rho be _ROTATION, r = |rho|, L = _COND_LIMIT and M = Re(rho A), the
    Toeplitz matrix T(x) of the real column x = Re(rho col). A is
    symmetric, so A^T = A and M is the Hermitian part of rho A: for unit v
    (the field of values; Horn & Johnson, Topics in Matrix Analysis, ch. 1)
    r ||Av|| >= |v^H rho A v| >= v^H M v, and sigma_min(A) >= lambda_min(M)/r.
    With s = ||A||_F >= sigma_max, lambda_min(M) > r s/L proves cond <= L.
    Let m = (n+1)/2, tau = s (1/L + 2(m+1)^1.5 u) and x' the computed x
    with tau taken off x_0. The computed tau exceeds r s/L (see s below) by
    about 2(m+1)^1.5 u s: the circulant tier shows lambda_min(M) > tau for
    the exact M outright, and the Cholesky tier spends that excess on its
    own rounding. With gamma_k = ku/(1 - ku) and u' = u(1 + O(mu)), both
    tiers share these errors:

    - x: each x_k errs by <= gamma_2 (|Re rho||Re c_k| + |Im rho||Im c_k|)
      <= gamma_2 r |c_k|.
    - the shift: fl(x_0 - tau) adds <= 2u(r |c_0| + tau) <= u' r s to the
      diagonal, since n|c_0|^2 <= s^2 and n >= 11.
    - s: s^2 = n|c_0|^2 + 2 sum_k (n-k)|c_k|^2 sums n nonnegative terms with
      exact integer weights, so the computed s^2 is at least (1 -
      gamma_{n+3}) times the exact one, and with n = 2m - 1 the computed tau
      at least (1 - (m+8)u') times the exact one.

    The circulant tier. T(x') is the leading n x n block of the symmetric
    circulant of order G = 2^k >= 2n - 1 whose first column is (x'_0,
    x'_1, ..., x'_{n-1}, 0, ..., 0, x'_{n-1}, ..., x'_1). Its eigenvalues
    are lambda_j = x'_0 + 2 sum_{i>0} x'_i cos(2 pi ij/G) = 2 Re(F x')_j -
    x'_0, F the length-G DFT of x' padded with zeros, j = 0..G/2, and by
    Cauchy interlacing (Horn & Johnson, Matrix Analysis, Thm 4.3.28)
    lambda_min(T(x')) >= min_j lambda_j. One rfft gives them all, and a
    minimum above the margin 64(k+2) sqrt(G) u s proves the claim, because
    the rounding takes less:

    - x and the shift: T(x') = M - tau I + T(delta), and T(delta) repeats
      each entry with the weights of s, so ||T(delta)||_2 <=
      ||T(delta)||_F <= (gamma_2 + u') r s <= 3u' s.
    - the FFT (Higham 2002, sec. 24.1, Thm 24.2): a radix-2 FFT whose
      twiddles err by <= mu errs in the 2-norm by <= k eta/(1 - k eta)
      ||F x'||_2, eta = mu + gamma_4 (sqrt(2) + mu), and ||F x'||_2 =
      sqrt(G) ||x'||_2. NumPy's pocketfft runs radix-4 passes (and one
      radix-2 pass for odd k): a pass turns its inputs by the twiddles w^j,
      w^2j and w^3j, then adds them through two radix-2 levels whose
      twiddles +-1, +-i are exact, so it errs by no more than the two
      levels it replaces, and its real transform forms the same sums for
      the half spectrum it keeps. Each twiddle, a product of two table
      entries from octant-reduced angles, is taken to be within mu <= 5u'
      (tests compare the whole transform with exact sums). As s^2 >=
      2(|c_0|^2 + sum_k |c_k|^2), ||x'||_2 <= (1 + gamma_3) r s/sqrt(2) +
      tau <= 0.71 s, so with eta <= 10.7u' and k <= 13 (MAX_SEGMENTS) each
      lambda_j errs by <= 2 (0.71) (10.7) k sqrt(G) u' s <= 16 k sqrt(G)
      u' s.
    - forming 2 min Re(F x') - x'_0, the margin and s adds a relative
      error <= (m+12)u'.

    So lambda_min(M) - tau >= (64(k+2)(1 - (m+12)u') - 16k) sqrt(G) u' s -
    3u' s > 0. The bound is loose where the circulant's wrapped tail
    matters: on a tridiagonal Toeplitz matrix with off-diagonal b the
    circulant's minimum lies 2|b|(1 - cos(pi/(n+1))) below
    lambda_min(T(x')). Such a column falls through to the Cholesky tier.

    The Cholesky tier. For each m x m block E of the exact orthogonal fold
    Q^T A Q (_fold), Re(rho E) is a diagonal block of Q^T M Q, which has no
    others, so lambda_min(M) is the lower of theirs. The test folds the
    real column x' through _fold: in its layout the even block T + H is S
    (Re(rho E) - tau I) S, its centre row and column holding 2x rather than
    sqrt(2) x, and the odd block's centre row and column are its pad,
    exactly zero, whose diagonal is then set to s. Both are exactly
    symmetric, so the lower triangle a Cholesky reads is the whole block.
    A Cholesky factorization that runs to completion proves Re(rho E) - tau
    I definite for the exact M and s: with K the computed block, dF the
    rounding of the fold and shift in it and dK the Cholesky's, K + dK =
    R^T R gives lambda_min(Re(rho E)) >= tau - ||dF|| - ||dK||, as ||S^-1||
    = 1.

    - the fold: each x_k errs as above, and the sum or difference of x_a
      and x_b adds one rounding, so an entry errs by <= gamma_3 r (|c_a| +
      |c_b|). An even entry and the odd one beside it have |E_ij|^2 +
      |O_ij|^2 = |c_a + c_b|^2 + |c_a - c_b|^2 = 2(|c_a|^2 + |c_b|^2) >=
      (|c_a| + |c_b|)^2, and a centre entry 2x_k errs by <= 2 gamma_2 r
      |c_k| <= sqrt(2) gamma_3 r |E_ip|, so the fold adds <= sqrt(2)
      gamma_3 r s to ||dF||, and the shift u' r s.
    - the Cholesky (Higham 2002, Thm 10.3; Rump, BIT 46, 2006): |dK_ij| <=
      gamma_{m+1}/(1 - gamma_{m+1}) sqrt(k_ii k_jj), so ||dK||_2 <= (m+1) u'
      tr(K), where tr(K) <= (1 + 5u') r (sum |E_ii| + |c_0|) <= (1 + 5u') r
      s (sqrt(m) + 1/sqrt(n)), and (m+1)/sqrt(n) <= sqrt(m+1).

    So lambda_min(M) >= tau - ((m+1) sqrt(m) + sqrt(m+1) + 3 sqrt(2) + 1)
    u' r s - (m+8) u' s/L, and the margin 2(m+1)^1.5 u s in tau exceeds
    what the errors take, with r <= 1 + 2u, by at least ((m+1)^1.5 -
    sqrt(m+1) - 3 sqrt(2) - 1) u' s - (m+10) u' s/L > 0 for m >= 3
    (MIN_SEGMENTS gives m >= 6) and m << L. The odd block's pad is zero off
    its diagonal, so the factor's pad row is zero and the bound holds for
    the leading p x p part.

    cond does not see scale, so a column whose s^2 leaves _SQUARED_NORM_RANGE
    is judged as c' = 2^-e c, 2^e from math.frexp of max |c_k|: max |c'_k|
    is in [1/2, 1), so s'^2 is in [1/2, n^2]. np.ldexp is exact except where
    a part lands below the normal range and rounds to a multiple of 2^-1074,
    so each c'_k errs by <= 2^-1074: a matrix of norm <= n 2^-1074 <
    2^-1061, far under the u s' >= 2^-54 by which either margin exceeds its
    errors. A zero column, or one holding inf or nan, stays unproven.

    What the proof takes from n alone, the weights of s^2, G, the
    coefficient 1/L + 2(m+1)^1.5 u of tau and 64(k+2) sqrt(G) u of the
    margin, comes from _per_n: formed once per n in the order written
    here, so tau and the verdict are those of a fresh computation, and
    shared read-only. The Cholesky tier's blocks go into out, a
    C-contiguous float (2, m, m) buffer, which solve_current takes from its
    one workspace; the circulant tier writes none.
    """
    weights, g, shift, margin, _ = _per_n(col.size)[1]
    a = np.abs(col)   # einsum, unlike a ufunc or dot, overflows unwarned
    s2 = np.einsum("i,i,i->", weights, a, a)
    if not _SQUARED_NORM_RANGE[0] < s2 < _SQUARED_NORM_RANGE[1]:
        top = np.maximum.reduce(a)
        if not 0.0 < top < math.inf:   # zero, inf or nan
            return False
        e = -math.frexp(top)[1]
        return _certified(np.ldexp(col.real, e) + 1j * np.ldexp(col.imag, e), out)
    s = math.sqrt(s2)
    x = (col * _ROTATION).real   # Re(rho col), a view of the turned column
    x[0] -= s * shift
    # the circulant's eigenvalues are 2 Re(F x') - x'_0; minimum.reduce
    # skips the Python wrapper that ndarray.min calls
    spectrum = np.fft.rfft(x, g).real
    if 2.0 * np.minimum.reduce(spectrum) - x[0] > margin * s:
        return True
    blocks = _fold(x, out)
    blocks[1, -1, -1] = s   # the pad's diagonal
    try:
        np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError:
        return False
    return True


def solve_current(col: np.ndarray, mesh: SegmentMesh) -> np.ndarray:
    """Node currents of a 1 V delta gap at the center node, in the even mode.

    `col` must be assemble_system's column for `mesh` (another shape raises
    MeshError), the system A[i, j] = col[|i - j|]. The center feed excites
    only its even mode, so the solve runs on the (p+1) x (p+1) block T + H
    (p = feed_index) and the currents are mirrored back, exactly symmetric.
    The condition guard runs first and covers both blocks, whose singular
    values together are sigma(A): unless _certified proves cond(A) <=
    _COND_LIMIT, the solve is refused. For a symmetric x, (A x)[:p+1] =
    (T + H) z with x = (z_0, ..., z_{p-1}, 2 z_p, z_{p-1}, ..., z_0), so
    the LU solves (T + H) z = e_p and, with r = (T + H) z - e_p, the
    residual ||A x - e_p|| is sqrt(2 ||r[:p]||^2 + |r_p|^2) = sqrt(2 ||r||^2
    - |r_p|^2). T + H and the Cholesky tier's blocks share one workspace
    (the module docstring's memory budget). `col` is never written. An
    exactly singular T + H behind a passing guard raises SolverError.
    """
    n, p = mesh.n, mesh.feed_index
    if col.shape != (n,):
        raise MeshError("system shape %s does not match the mesh's n = %d"
                        % (col.shape, n))
    m = p + 1
    work = np.empty((2, m, m), dtype=complex)
    if not _certified(col, work[1].view(float).reshape(2, m, m)):
        raise SolverError("system condition not proven <= %.1g" % _COND_LIMIT)
    even = _fold(col, work[:1])[0]
    try:
        z = np.linalg.solve(even, _per_n(n)[1][4])
    except np.linalg.LinAlgError:   # exactly singular
        raise SolverError("even-mode block is singular") from None
    r = even @ z
    r[p] -= 1.0
    residual = math.sqrt(2.0 * np.vdot(r, r).real - abs(r[p]) ** 2)
    if not residual <= _RESIDUAL_LIMIT:   # nan too
        raise SolverError("solve residual %.3g exceeds %.1g" % (residual, _RESIDUAL_LIMIT))
    currents = np.concatenate((z, z[p - 1::-1]))
    currents[p] *= 2.0
    return currents


def input_impedance(current: CurrentDistribution) -> complex:
    """Z_in = 1 V / I at the feed node."""
    i_feed = current.feed_current
    scale = np.maximum.reduce(np.abs(current.currents))
    if scale > 0 and abs(i_feed) < 1e-9 * scale:
        warnings.warn("feed current nearly zero: numerical antiresonance",
                      RuntimeWarning, stacklevel=2)
    return 1.0 / i_feed


def solve_at(mesh: SegmentMesh, f: float) -> CurrentDistribution:
    """1 V delta-gap currents on mesh at f, which they carry; a SolverError
    names f once. After assembly, segments longer than lambda_e/4 (kh > pi/2,
    the thin-wire MoM rule of Burke & Poggio, NEC-2 Part I, 1981) are refused,
    naming the smallest odd n (> mesh.n) that passes, or the limit no mesh can
    pass, and the highest f that mesh resolves, rounded down to 4 digits."""
    try:
        col = assemble_system(mesh, f)
        quarter = C_MM_PER_S / (4.0 * f * mesh.model.eps_e ** 0.5)   # mm
        if (L := mesh.model.total_length) > quarter * (mesh.n + 1):
            n = 2 * math.ceil(L / quarter / 2.0) - 1
            n += 2 * (L > quarter * (n + 1))   # a ratio that rounded down
            top = min(max_segments(L, mesh.model.radius), MAX_SEGMENTS)
            f_top = f * (quarter * (mesh.n + 1) / L)   # where kh = pi/2
            # its 4th digit; below 1e-300 Hz no frequency is named, f <= 0
            unit = 10.0 ** (math.floor(math.log10(max(f_top, 1e-300))) - 3)
            raise SolverError("h = %.4g mm > lambda_e/4 = %.4g mm; " % (
                L / (mesh.n + 1), quarter) + ("use n >= %d" % n if n <= top
                else "no mesh of this wire resolves f (n <= %d)" % top)
                + ", or f <= %.4g Hz at n = %d" % (
                    max(math.ceil(f_top / unit) - 1, 0) * unit, mesh.n))
        return CurrentDistribution(solve_current(col, mesh), mesh, f)
    except SolverError as exc:
        raise type(exc)("at %g Hz: %s" % (f, exc)) from exc


def impedance_at(model: WireModel, f: float, n: int | None = None) -> complex:
    """Z_in of model at f on build_mesh(model, n), via the one path solve_at."""
    return input_impedance(solve_at(build_mesh(model, n), f))


def geometry_model(geometry: DipoleGeometry, substrate: Substrate) -> WireModel:
    """Strip dipole on a substrate reduced to an embedded wire model, once
    its design-rule restrictions hold; every solve of a geometry starts here."""
    check_restrictions(geometry, substrate).raise_violations()
    eps_e = eps_eff_microstrip(substrate.eps_r, geometry.W, substrate.h)
    return WireModel(total_length=geometry.L, radius=strip_to_wire(geometry.W),
                     eps_e=eps_e)


def frequency_grid(f_start: float, f_stop: float, f_step: float) -> np.ndarray:
    check_frequency(f_start)
    check_frequency(f_stop)
    if f_start > f_stop:
        raise ValueError("f_start must be <= f_stop")
    check_positive("f_step", f_step)   # an inf step would make a nan grid
    steps = (f_stop - f_start) / f_step
    if not steps < MAX_GRID_POINTS:
        raise ValueError("band has %.3g steps, limit %d" % (steps, MAX_GRID_POINTS))
    count = int(round(steps))
    grid = f_start + f_step * np.arange(count + 1)
    return grid[grid <= f_stop * (1 + 1e-12)]


def solve_band(mesh: SegmentMesh, freqs: np.typing.ArrayLike,
               z0: float) -> SweepResult:
    """Z_in and match metrics of mesh at each of freqs, any 1-D sequence
    (another shape is refused before any solve), by solve_at. Callers refuse
    freqs and z0 before any solve; SweepResult still rejects both."""
    freqs = np.asarray(freqs, dtype=float)
    if freqs.ndim != 1:
        raise ValueError("frequency grid must be 1-D, got shape %s"
                         % (freqs.shape,))
    z_in = np.empty(freqs.size, dtype=complex)
    for i, f in enumerate(freqs.tolist()):
        z_in[i] = input_impedance(solve_at(mesh, f))
    return SweepResult(freqs, z_in, z0, mesh)


def sweep(geometry: DipoleGeometry, substrate: Substrate,
          f_start: float, f_stop: float, f_step: float,
          n: int | None = None, z0: float = DEFAULT_Z0) -> SweepResult:
    """solve_band over a band on the geometry's mesh. z0 and the band are
    refused before the design-rule restrictions, and those before the mesh."""
    check_z0(z0)
    freqs = frequency_grid(f_start, f_stop, f_step)
    mesh = build_mesh(geometry_model(geometry, substrate), n)
    return solve_band(mesh, freqs, z0)
