"""Symmetry-invariant Morse theory on the quotient two-sphere.

The rotation image H of a binary group acts on S^2 with finitely many
exceptional axes; their endpoints form Fix(H).  This module builds a smooth
H-invariant Morse function whose critical set is exactly Fix(H), classifies
the critical points by Morse index, counts gradient flow lines between
critical orbits by shooting along Hessian eigen-directions, assembles the
weighted orbifold Morse complex over the orientable generators, and checks
the index bookkeeping that ties Morse indices downstairs to Conley-Zehnder
indices of the covering closed orbits upstairs.

Construction of the invariant function
--------------------------------------
For a cyclic image (a rotation group about one axis, possibly trivial) the
height along that axis is used: it is invariant and has exactly two critical
points, the poles.

For a dihedral image of order 2n the function is the closed form

    f(x) = <x, a>^2 - Re(z^n)/n,    z = <x, e1> + i <x, e2>,

where a is the first Plus point (the n-fold axis), e1 the first Minus point
and e2 = a x e1.  The rotations about a act by z -> exp(2 pi i k/n) z and the
half-turns by z -> exp(2 pi i k/n) conj(z), <x, a> -> -<x, a>, so f is exactly
H-invariant.  With x3 = <x, a> and z = r exp(i phi), d f/d phi = r^n sin(n phi),
and on the meridians where sin(n phi) = 0, d f/d x3 = x3 (2 +- r^(n-2))
vanishes only on the equator; so the critical set is exactly Fix(H), with
maxima at the Plus points, minima at the Minus points and saddles at the
Saddle points.  Its gradient 2<x, a> a - Re(z^(n-1) w) and Hessian
2 a a^T - (n-1) Re(z^(n-2) w w^T), with w = e1 + i e2, are closed-form too.

For a polyhedral image the function is a difference of smooth bump sums

    f(x) = sum_{p in Max} ((1 + <x, p>)/2)^m  -  sum_{q in Min} ((1 + <x, q>)/2)^m

where Max and Min are the full H-orbits of maximum- and minimum-type fixed
points and m is a fixed integer sharpness per type: 4 for T and O, 6 for I.
Because each sum ranges over a whole orbit, f is exactly H-invariant, and
saddle points appear at the remaining fixed points, forced by symmetry.

Every function is certified rather than assumed.  The maximum of
|f(R x) - f(x)| over the rotations and a sphere sample must stay below half
of TOL_INVARIANCE; a quasi-uniform scan must show that the critical set is
exactly Fix(H); and every Hessian index must match the expected assignment
(minima on minimum-type points, and so on).  A failed certificate raises
SpuriousCriticalPoint, a wrong index IndexMismatch.

Both certificates read only the lattice points of F', a fundamental domain
of H on S^2 widened by a margin above the lattice's covering radius
(``_fundamental_domain``); every point of S^2 has an H-image in the
domain.  For the scan: f is H-invariant, so its gradient is H-equivariant
and |grad f| is invariant, and the scanned points stand for all their
H-images, which cover the sphere as densely as the whole lattice.  For
invariance: over those images, f(R h x) - f(h x) = [f(R h x) - f(x)] -
[f(h x) - f(x)] with R h and h in H, so the defect is at most twice the
residual over the points of F'.  So neither guard is weaker than on the
whole lattice, and the scan takes about 1/|H| of its gradients.

Flow lines and the weighted complex
-----------------------------------
Trajectories between consecutive-index critical points start from seeds
displaced 1e-4 along the saddles' Hessian eigen-directions, two per saddle.
Every saddle has isotropy 2, and its half-turn swaps its two seeds, so the
seeds form a single H-orbit: each flow count has one trajectory class, so
its downstairs count is 1, and the class carries the integer weight
|H_p| / |H_x| (source isotropy over trajectory stabilizer).  Since f is
H-invariant, a rotation R maps the flow line from a seed onto the one from
R's image of the seed.  So only the first seed is integrated: along the
(plus or minus) unit-speed gradient flow with an error-controlled
Dormand-Prince 5(4) pair, every stage re-projected to the sphere, declaring
convergence within 1e-6 of a critical point.  Every other trajectory ends at
the image of that endpoint under a rotation carrying the first seed to its
own.

Index-1 critical points with order-2 isotropy are non-orientable downstairs
(the isotropy involution acts on the unstable direction by -1), so the
orbifold complex keeps only the orientable generators; for every supported
group those sit in degrees 0 and 2, the differential vanishes, and the
homology ranks are (1, 0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .groups import (
    OrbifoldPointKind,
    build_group,
    parse_group_spec,
)
from .orbits import _base_by_name, base_table, covering_multiplicity, make_orbit

__all__ = [
    "InvariantMorseFunction",
    "DihedralMorseFunction",
    "CriticalPoint",
    "Trajectory",
    "FlowLines",
    "OrbifoldComplex",
    "SpuriousCriticalPoint",
    "IndexMismatch",
    "NonConvergentTrajectory",
    "HomologyMismatch",
    "IndexCorrespondenceFailure",
    "build_invariant_morse",
    "find_critical_points",
    "count_flow_lines",
    "orbifold_complex",
    "seifert_index_check",
]

# ---------------------------------------------------------------------------
# tolerances and budgets

#: maximum allowed |f(h.x) - f(x)| over group elements and sample points
TOL_INVARIANCE = 1e-10
#: critical points must refine to within this distance of the fixed points
TOL_CRITICAL_MATCH = 1e-6
#: scan neighborhoods around Fix(H) excluded from the gradient-floor check
MASK_RADIUS = 1e-2
#: the tangent gradient norm must exceed this floor outside the mask
GRADIENT_FLOOR = 1e-6
#: scan points whose gradient norm falls below this are refined and must
#: land back on Fix(H); otherwise the critical set has a spurious member
CANDIDATE_THRESHOLD = 1e-3
#: number of quasi-uniform scan points on the sphere
SCAN_POINTS = 100_000
#: number of quasi-uniform sphere points of the invariance check
INVARIANCE_POINTS = 2048
#: initial displacement along a Hessian eigen-direction when shooting
SEED_DISPLACEMENT = 1e-4
#: a trajectory converges when it comes within this distance of a critical point
TOL_CONVERGENCE = 1e-6
#: chordal distance at which an endpoint Newton snap is attempted
SNAP_RADIUS = 5e-4
#: largest accepted local error of one flow step (embedded 5(4) estimate), far
#: below SNAP_RADIUS so no step can carry a trajectory into a wrong basin
TOL_STEP = 1e-7
#: hard cap on attempted (accepted or rejected) flow steps per trajectory
STEP_LIMIT = 20_000
#: initial arc-length step of the unit-speed flow; the error control adapts
#: it per trajectory, and 1e-2 STEP_BASE floors the near-target cap
STEP_BASE = 2e-3
#: sphere points one block of the certification kernels (invariance check,
#: critical-set scan) evaluates at once; each block is reduced to its max or
#: min before the next is formed
BLOCK = 8192


class SpuriousCriticalPoint(ArithmeticError):
    """The invariant function has (or cannot exclude) critical points off Fix(H)."""


class IndexMismatch(AssertionError):
    """A critical point's Hessian index disagrees with its expected assignment."""


class NonConvergentTrajectory(ArithmeticError):
    """A shot gradient trajectory failed to converge to the expected target set."""


class HomologyMismatch(AssertionError):
    """The orbifold complex does not have the homology ranks of the two-sphere."""


class IndexCorrespondenceFailure(AssertionError):
    """Morse index differences disagree with covering-orbit index differences."""


def _row_norms(v, keepdims=False):
    """``np.linalg.norm(v, axis=-1)`` of a real array: the same sum of
    squares and square root, without the argument handling that every
    stage of a flow step would pay."""
    return np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=keepdims))


def _normalize(x):
    return x / _row_norms(x, keepdims=True)


@cache
def _fibonacci_sphere(count):
    """Quasi-uniform sample of the unit sphere (golden-angle lattice).

    Built once per count and process, BLOCK rows at a time into one array,
    and read-only, since every caller shares it.
    """
    pts = np.empty((count, 3))
    for lo in range(0, count, BLOCK):
        i = np.arange(lo, min(lo + BLOCK, count), dtype=float) + 0.5
        polar = np.arccos(1.0 - 2.0 * i / count)
        azimuth = math.pi * (1.0 + math.sqrt(5.0)) * i
        sin_polar = np.sin(polar)
        rows = pts[lo:lo + BLOCK]
        rows[:, 0] = np.cos(polar)
        rows[:, 1] = sin_polar * np.cos(azimuth)
        rows[:, 2] = sin_polar * np.sin(azimuth)
    pts.setflags(write=False)
    return pts


def _lattice_margin(count):
    """Margin of the fundamental domain for the `count`-point lattice:
    twice 2/sqrt(count), the area bound below which `count` caps cannot
    cover the sphere.  The lattice's covering radius exceeds that bound
    (about 1.2 times it at 100,000 points and 1.3 times at 2,048, largest
    near the poles), so the bound alone would be too thin a margin."""
    return 4.0 / math.sqrt(count)


def _fundamental_domain(func, x, margin):
    """Mask of the rows of `x` within `margin` of a fundamental domain of H.

    The domain D is the cap about e0 = (1, 0, 0) of radius rho, cut to the
    sector of width 2 pi/k about e0 centred on (0, 1, 0), where k is the
    order of the stabilizer of e0 in H and rho the largest distance from a
    point of Fix(H) to the orbit H.e0 (180 degrees for C:n, 90 for D:n,
    54.7 for T and O, 31.7 for I).  For every supported H the vertices of
    the orbit's Voronoi cells are points of Fix(H), so every point of S^2
    lies within rho of some image of e0, and some rotation carries it into
    the cap; a rotation about e0 then carries it into the sector.  So the
    H-images of D cover S^2, as a test checks for every supported group.
    Widened by `margin`, the cap has radius
    rho + margin and the sector admits points within `margin` of its two
    edges (a slight superset of the margin neighbourhood near -e0).  Raises
    ValueError unless e0 is a point of Fix(H).  Evaluated BLOCK rows at a
    time.
    """
    e0 = np.array([1.0, 0.0, 0.0])
    fixed = _all_fixed_point_array(func.fixed_orbits)
    if not np.min(np.linalg.norm(fixed - e0, axis=-1)) <= 1e-12:
        raise ValueError(f"{func.spec.label}: e0 = (1, 0, 0) is not a point of Fix(H)")
    orbit = func.rotations[:, :, 0]  # R e0 is the first column of R
    k = int(np.sum(orbit[:, 0] >= 1.0 - 1e-12))
    rho = math.acos(max(-1.0, float(np.min(np.max(fixed @ orbit.T, axis=1)))))
    cap = math.cos(rho + margin) if rho + margin < math.pi else -np.inf
    # the outward normals of the sector's edges, at azimuths +-pi/k, are
    # (0, -sin(pi/k), +-cos(pi/k)); a point past an edge has a positive
    # component along its normal: the sine of its distance to the edge's
    # great circle, which is no more than its distance to the sector
    sin_half, cos_half = math.sin(math.pi / k), math.cos(math.pi / k)
    edge = math.sin(margin) if k > 1 else np.inf
    inside = np.empty(len(x), dtype=bool)
    for lo in range(0, len(x), BLOCK):
        rows = x[lo:lo + BLOCK]
        inside[lo:lo + BLOCK] = ((rows[:, 0] >= cap)
                                 & (cos_half * np.abs(rows[:, 2]) - sin_half * rows[:, 1] <= edge))
    return inside


def _domain_lattice(func, count):
    """The points of the `count`-point lattice in F', the fundamental domain
    of H widened by ``_lattice_margin(count)``, in lattice order."""
    lattice = _fibonacci_sphere(count)
    return lattice[_fundamental_domain(func, lattice, _lattice_margin(count))]


def _tangent_frames(x):
    """Orthonormal bases (u, v) of the tangent planes at unit vectors x, shape (k, 3)."""
    u = np.cross(np.eye(3)[np.argmin(np.abs(x), axis=-1)], x)
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    return u, np.cross(x, u)


# ---------------------------------------------------------------------------
# the invariant function


class InvariantMorseFunction:
    """A smooth H-invariant function on S^2 with critical set Fix(H).

    ``centers_max``/``centers_min`` hold the bump centers (full H-orbits of
    maximum- and minimum-type fixed points); both are ``None`` for the cyclic
    height function, which is ``f(x) = x[0]`` along the symmetry axis.
    Evaluation, the ambient gradient and Hessian, and the spherical
    (tangential) gradient all accept batched inputs of shape ``(..., 3)``.
    """

    def __init__(self, spec, rotations, fixed_orbits, centers_max, centers_min, sharpness):
        self.spec = spec
        self.rotations = rotations
        self.fixed_orbits = tuple(fixed_orbits)
        self.centers_max = centers_max
        self.centers_min = centers_min
        self.sharpness = sharpness
        self._critical_points = None  # the classification build_invariant_morse certified

    # -- evaluation ---------------------------------------------------------

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if self.centers_max is None:
            return x[..., 0]
        plus = ((1.0 + x @ self.centers_max.T) / 2.0) ** self.sharpness
        minus = ((1.0 + x @ self.centers_min.T) / 2.0) ** self.sharpness
        return plus.sum(axis=-1) - minus.sum(axis=-1)

    def gradient_ambient(self, x):
        x = np.asarray(x, dtype=float)
        if self.centers_max is None:
            out = np.zeros(x.shape)
            out[..., 0] = 1.0
            return out
        m = self.sharpness
        gp = (m / 2.0) * ((1.0 + x @ self.centers_max.T) / 2.0) ** (m - 1)
        gm = (m / 2.0) * ((1.0 + x @ self.centers_min.T) / 2.0) ** (m - 1)
        return gp @ self.centers_max - gm @ self.centers_min

    def gradient(self, x):
        """Spherical gradient: the ambient gradient projected to the tangent plane."""
        x = np.asarray(x, dtype=float)
        g = self.gradient_ambient(x)
        return g - np.add.reduce(g * x, axis=-1, keepdims=True) * x

    def hessian_ambient(self, x):
        x = np.asarray(x, dtype=float)
        if self.centers_max is None:
            return np.zeros(x.shape + (3,))
        m = self.sharpness
        out = 0.0
        for centers, sgn in ((self.centers_max, 1.0), (self.centers_min, -1.0)):
            w = (m * (m - 1) / 4.0) * ((1.0 + x @ centers.T) / 2.0) ** (m - 2)
            out = out + sgn * np.swapaxes(w[..., None] * centers, -1, -2) @ centers
        return out

    def sphere_hessian(self, x, frame):
        """The 2x2 Hessians of f|_{S^2} in orthonormal tangent frames (u, v) at x.

        With P the tangent projection this is P (Hess F) P - (x . grad F) I
        restricted to the frame; at a critical point it is frame-covariant,
        so eigenvalue signs (the Morse index) do not depend on the frame.
        Batched over the leading axes of x, u and v.
        """
        x = np.asarray(x, dtype=float)
        basis = np.stack(frame, axis=-1)
        radial = np.sum(self.gradient_ambient(x) * x, axis=-1)
        return (np.swapaxes(basis, -1, -2) @ self.hessian_ambient(x) @ basis
                - radial[..., None, None] * np.eye(2))

    # -- invariance ---------------------------------------------------------

    def invariance_residual(self):
        """max |f(R x) - f(x)| over the rotation image and the points x of
        the INVARIANCE_POINTS lattice in the widened fundamental domain F'.

        Over the H-images of those points, which sample the whole sphere at
        the lattice's density, the invariance defect is at most twice this
        residual: f(R h x) - f(h x) = [f(R h x) - f(x)] - [f(h x) - f(x)],
        and both R h and h are rotations of H.  The images are formed a few
        rotations at a time, at most BLOCK points per block.
        """
        pts = _domain_lattice(self, INVARIANCE_POINTS)
        base = self.value(pts)
        step = max(1, BLOCK // len(pts))
        worst = [np.max(np.abs(self.value(pts @ np.swapaxes(self.rotations[lo:lo + step], -1, -2))
                               - base))
                 for lo in range(0, len(self.rotations), step)]
        return float(np.max(worst))


class DihedralMorseFunction(InvariantMorseFunction):
    """The closed form ``f(x) = <x,a>^2 - Re(z^n)/n`` for a dihedral image.

    ``a = centers_max[0]`` (the first Plus point), ``e1 = centers_min[0]``
    (the first Minus point), ``e2 = a x e1``, ``z = <x, w>`` with
    ``w = e1 + i e2``, and n is the group parameter.
    """

    @cached_property
    def _axes(self):
        a = self.centers_max[0]
        e1 = self.centers_min[0]
        return a, e1 + 1j * np.cross(a, e1)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        a, w = self._axes
        n = self.spec.n
        return (x @ a) ** 2 - ((x @ w) ** n).real / n

    def gradient_ambient(self, x):
        x = np.asarray(x, dtype=float)
        a, w = self._axes
        power = (x @ w) ** (self.spec.n - 1)
        return 2.0 * (x @ a)[..., None] * a - (power[..., None] * w).real

    def hessian_ambient(self, x):
        x = np.asarray(x, dtype=float)
        a, w = self._axes
        n = self.spec.n
        power = (n - 1) * (x @ w) ** (n - 2)
        return 2.0 * np.outer(a, a) - (power[..., None, None] * np.outer(w, w)).real


# ---------------------------------------------------------------------------
# critical points


@dataclass
class CriticalPoint:
    """One critical point of the invariant function (a fixed point of H)."""

    point: tuple
    kind: OrbifoldPointKind
    index: int
    isotropy: int
    orientable: bool
    value: float
    hessian_eigenvalues: tuple
    frame: tuple = field(repr=False, default=())
    eigenvectors: tuple = field(repr=False, default=())

    def eigendirection(self, which):
        """The 3-vector tangent eigen-direction for eigenvalue slot `which`."""
        u, v = (np.array(b) for b in self.frame)
        a, b = self.eigenvectors[which]
        w = a * u + b * v
        return w / np.linalg.norm(w)


def _newton_refine(func, starts, iters=60):
    """Newton iteration on the spherical gradient field from each row of `starts`.

    Returns (points, converged) for the (k, 3) stack.  A row aborts with
    converged=False on a singular Hessian or a step longer than 0.5; it stops
    once a step is below 1e-14 and its gradient norm below 1e-12, and it has
    converged when its final gradient norm is below 1e-10.
    """
    x = _normalize(np.asarray(starts, dtype=float))
    running = np.ones(len(x), dtype=bool)
    failed = np.zeros(len(x), dtype=bool)
    for _ in range(iters):
        idx = np.nonzero(running)[0]
        if idx.size == 0:
            break
        cur = x[idx]
        g = func.gradient(cur)
        u, v = _tangent_frames(cur)
        h = func.sphere_hessian(cur, (u, v))
        gu = np.sum(g * u, axis=-1)
        gv = np.sum(g * v, axis=-1)
        det = h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0]
        singular = ~(np.abs(det) > 0.0)
        det[singular] = 1.0
        su = (h[:, 1, 1] * gu - h[:, 0, 1] * gv) / det
        sv = (h[:, 0, 0] * gv - h[:, 1, 0] * gu) / det
        step = su[:, None] * u + sv[:, None] * v
        size = np.linalg.norm(step, axis=-1)
        abort = singular | (size > 0.5)
        failed[idx[abort]] = True
        moved = ~abort
        x[idx[moved]] = _normalize(cur[moved] - step[moved])
        done = moved & (size < 1e-14) & (np.linalg.norm(g, axis=-1) < 1e-12)
        running[idx[abort | done]] = False
    converged = ~failed & (np.linalg.norm(func.gradient(x), axis=-1) < 1e-10)
    return x, converged


def _all_fixed_point_array(fixed_orbits):
    return np.array([p for fo in fixed_orbits for p in fo.points], dtype=float)


def _scan_critical_set(func):
    """Certify that the critical set is exactly Fix(H).

    Scans the points of a quasi-uniform lattice that lie in the widened
    fundamental domain F' (``_fundamental_domain``).  Since f is
    H-invariant, its gradient is H-equivariant and |grad f| is invariant, so
    scanning those points is scanning all their H-images, which cover the
    sphere as densely as the whole lattice does.  Outside MASK_RADIUS
    neighborhoods of Fix(H) (``_fixed_distances``, one band of the scanned
    points per fixed point) the tangent gradient norm must exceed
    GRADIENT_FLOOR, and every scanned point below CANDIDATE_THRESHOLD must
    Newton-refine back into a Fix(H) neighborhood.  The gradient is
    evaluated BLOCK points at a time, each block reduced to its floor and
    its candidates.  Returns None on success, else a failure reason.
    """
    pts = _domain_lattice(func, SCAN_POINTS)
    fixed = _all_fixed_point_array(func.fixed_orbits)
    # the mask needs the distances up to MASK_RADIUS; twice that against rounding
    outside = _fixed_distances(pts, fixed, 2.0 * MASK_RADIUS) > MASK_RADIUS
    floors, candidates = [], []
    for lo in range(0, len(pts), BLOCK):
        out = outside[lo:lo + BLOCK]
        if not np.any(out):
            continue
        norms = np.linalg.norm(func.gradient(pts[lo:lo + BLOCK]), axis=-1)
        floors.append(np.min(norms[out]))
        # a NaN norm is not above the threshold, so it is a candidate
        candidates.append(lo + np.nonzero(out & ~(norms >= CANDIDATE_THRESHOLD))[0])
    # np.min over the block minima propagates a NaN as one whole-lattice
    # np.min would, where Python's min would drop it; a NaN floor fails
    if not floors:
        return "mask covered the whole scan lattice"
    floor = float(np.min(floors))
    if not (floor > GRADIENT_FLOOR):
        nearest = np.min(_fixed_distances(pts, fixed, 2.0)[outside])
        return f"gradient floor {floor:.3e} at distance {nearest:.3e}"
    candidates = np.concatenate(candidates)
    if candidates.size == 0:
        return None
    refined, converged = _newton_refine(func, pts[candidates])
    # a row that wandered off certifies no critical point
    gaps = np.min(np.linalg.norm(refined[:, None, :] - fixed, axis=-1), axis=1)
    off = np.nonzero(converged & (gaps > CANDIDATE_THRESHOLD))[0]
    if off.size:
        i = off[0]
        return f"refined critical point at {tuple(np.round(refined[i], 6))} off Fix(H) by {gaps[i]:.3e}"
    return None


def _fixed_distances(pts, fixed, reach):
    """Chordal distance from each lattice point to the nearest fixed point,
    among those whose first coordinate lies within `reach` of its own.

    Only that band of the lattice is compared with each fixed point p: the
    lattice's first coordinate falls strictly with the index, so the band
    is one slice, found by bisection.  A point in no band gets inf.  A point
    within chordal distance d of p has its first coordinate within d of p's,
    so every distance up to `reach` is exact; a `reach` of 2 compares every
    point with every fixed point.
    """
    cosine = np.full(len(pts), -np.inf)
    falling = -pts[:, 0]
    lows = np.searchsorted(falling, -fixed[:, 0] - reach, side="left")
    highs = np.searchsorted(falling, -fixed[:, 0] + reach, side="right")
    for p, lo, hi in zip(fixed, lows, highs):
        np.maximum(cosine[lo:hi], pts[lo:hi] @ p, out=cosine[lo:hi])
    return np.sqrt(np.maximum(0.0, 2.0 - 2.0 * cosine))


def _classify_critical_points(func):
    """Refine every fixed point and classify it; raises on any mismatch."""
    expected = {entry.name: entry.morse_index for entry in base_table(func.spec)}
    out = []
    for fo in func.fixed_orbits:
        want = expected[fo.kind.name]
        starts = np.array(fo.points, dtype=float)
        refined, converged = _newton_refine(func, starts)
        frames = _tangent_frames(refined)
        eigvals, eigvecs = np.linalg.eigh(func.sphere_hessian(refined, frames))
        values = func.value(refined)
        for i, p in enumerate(fo.points):
            if not converged[i]:
                raise SpuriousCriticalPoint(
                    f"{func.spec.label}/{fo.kind.name}: refinement from {p} did not converge")
            drift = float(np.linalg.norm(refined[i] - starts[i]))
            if drift > TOL_CRITICAL_MATCH:
                raise SpuriousCriticalPoint(
                    f"{func.spec.label}/{fo.kind.name}: critical point drifted {drift:.3e} "
                    f"from the fixed point {p}")
            if float(np.min(np.abs(eigvals[i]))) < 1e-8:
                raise SpuriousCriticalPoint(
                    f"{func.spec.label}/{fo.kind.name}: degenerate Hessian {tuple(eigvals[i])}")
            index = int(np.sum(eigvals[i] < 0.0))
            if index != want:
                raise IndexMismatch(
                    f"{func.spec.label}/{fo.kind.name}: Hessian index {index}, expected {want} "
                    f"(eigenvalues {tuple(np.round(eigvals[i], 6))})")
            orientable = not (index == 1 and fo.kind.isotropy == 2)
            out.append(CriticalPoint(
                point=tuple(refined[i]),
                kind=fo.kind,
                index=index,
                isotropy=fo.kind.isotropy,
                orientable=orientable,
                value=float(values[i]),
                hessian_eigenvalues=tuple(float(e) for e in eigvals[i]),
                frame=(tuple(frames[0][i]), tuple(frames[1][i])),
                eigenvectors=tuple(tuple(col) for col in eigvecs[i].T),
            ))
    return tuple(out)


#: bump-sum sharpness per polyhedral image (the scan certifies each)
_POLYHEDRAL_SHARPNESS = {"T": 4, "O": 4, "I": 6}


def build_invariant_morse(spec):
    """Build and certify the invariant Morse function for the rotation image of `spec`.

    Cyclic images get the axis height function, dihedral images the closed
    form of ``DihedralMorseFunction``, polyhedral images the bump sums at
    their fixed sharpness.  The invariance check, the critical-set scan and
    the index classification must all pass.  A failed certificate raises
    SpuriousCriticalPoint, a Hessian index other than the expected one
    IndexMismatch.  The classified critical points are stored on the
    function for ``find_critical_points``.
    """
    spec = parse_group_spec(spec)
    group = build_group(spec)
    rotations = group.rotations
    fixed = group.fixed_orbits

    if spec.kind == "cyclic":
        func = InvariantMorseFunction(spec, rotations, fixed, None, None, None)
    else:
        by_name = {fo.kind.name: fo for fo in fixed}
        max_name = next(e.name for e in base_table(spec) if e.morse_index == 2)
        min_name = next(e.name for e in base_table(spec) if e.morse_index == 0)
        centers_max = np.array(by_name[max_name].points, dtype=float)
        centers_min = np.array(by_name[min_name].points, dtype=float)
        if spec.kind == "binary_dihedral":
            func = DihedralMorseFunction(spec, rotations, fixed, centers_max, centers_min, None)
        else:
            func = InvariantMorseFunction(spec, rotations, fixed, centers_max, centers_min,
                                          _POLYHEDRAL_SHARPNESS[spec.label])

    # the defect over the H-images of the sample is at most twice the residual
    residual = func.invariance_residual()
    if not (2.0 * residual <= TOL_INVARIANCE):  # a NaN residual fails
        raise SpuriousCriticalPoint(
            f"{spec.label}: invariance residual {residual:.3e} exceeds half of {TOL_INVARIANCE}")
    reason = _scan_critical_set(func)
    if reason is not None:
        raise SpuriousCriticalPoint(f"{spec.label}: {reason}")
    func._critical_points = _classify_critical_points(func)
    return func


def find_critical_points(func):
    """All critical points of the invariant function, one per fixed point.

    The classification ``build_invariant_morse`` certified: points refined
    by Newton iteration from the fixed points and classified by the
    eigenvalue signs of the spherical Hessian.  Order follows the
    fixed-point orbits (minimum kind first, then saddle, then maximum).
    """
    return func._critical_points


# ---------------------------------------------------------------------------
# flow lines


@dataclass
class Trajectory:
    """One gradient flow line, recorded in flow direction (descending f)."""

    start: tuple
    end: tuple


@dataclass
class FlowLines:
    """Unsigned flow-line count between two critical orbits.

    ``upstairs`` counts trajectories on the sphere; ``downstairs`` counts
    their H-orbit classes, one for every nonempty count; ``weights[c]`` is
    |H_p| / |H_x| for class c (source isotropy over trajectory stabilizer).
    """

    source: str
    target: str
    upstairs: int
    downstairs: int
    weights: tuple
    trajectories: tuple


# Dormand-Prince 5(4) tableau (J. Comput. Appl. Math. 6, 1980): the stage
# rows, the last of which is the fifth-order solution, so its stage is the
# first of the next step; and the fifth-minus-fourth-order error weights
_DP_A = tuple(np.array(row) for row in (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
))
_DP_E = np.array(
    (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40))


def _integrate(func, seed, sign, targets):
    """Follow `seed` along the unit gradient flow until it reaches a target.

    The normalized field sign*grad/|grad| traces the same flow line at unit
    speed, so progress never stalls where the gradient is weak.  The
    trajectory takes Dormand-Prince 5(4) steps on the sphere (every stage
    re-projected, the last stage reused as the next step's first): a step is
    accepted when its embedded error estimate is at most TOL_STEP, and it
    never exceeds half the remaining distance to the nearest target
    (floored at 1e-2 STEP_BASE), so it cannot reach, let alone hop over,
    its destination before the snap; the final approach shrinks the
    distance geometrically, by half or more per accepted step.
    Once it comes within SNAP_RADIUS of a target, Newton iteration (the
    linear basin) finishes it, and must land within TOL_CONVERGENCE of that
    target.  Returns the target's row index.  Raises NonConvergentTrajectory
    when STEP_LIMIT attempted steps run out or the snap lands elsewhere.
    """
    x = np.array(seed, dtype=float)

    def field_at(p):
        g = func.gradient(p)
        return sign * g / max(_row_norms(g), 1e-15)

    def nearest(p):
        dist = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * targets @ p))
        which = int(np.argmin(dist))
        return which, dist[which]

    stages = np.empty((7, 3))
    stages[0] = field_at(x)
    h = STEP_BASE
    _, near = nearest(x)
    for _ in range(STEP_LIMIT):
        step = min(h, max(0.5 * near, 1e-2 * STEP_BASE))
        for j, row in enumerate(_DP_A, start=1):
            moved = _normalize(x + step * (row @ stages[:j]))
            stages[j] = field_at(moved)
        # `moved` is now the fifth-order point and stages[6] the field there
        error = step * _row_norms(_DP_E @ stages)
        h = step * np.clip(0.9 * (TOL_STEP / max(error, 1e-300)) ** 0.2, 0.2, 5.0)
        if error <= TOL_STEP:
            x = moved
            stages[0] = stages[6]
        which, near = nearest(x)
        if near < SNAP_RADIUS:
            refined, converged = _newton_refine(func, x[None], iters=30)
            if not (converged[0]
                    and np.linalg.norm(refined[0] - targets[which]) <= TOL_CONVERGENCE):
                raise NonConvergentTrajectory(
                    f"{func.spec.label}: endpoint snap near "
                    f"{tuple(np.round(targets[which], 6))} failed to converge")
            return which
    raise NonConvergentTrajectory(
        f"{func.spec.label}: trajectory unresolved after {STEP_LIMIT} steps "
        f"(position {tuple(np.round(x, 6))})")


def count_flow_lines(func, source, target):
    """Count gradient flow lines from `source` to `target` critical orbits.

    `source` and `target` name orbifold points.  When the Morse index does
    not drop by exactly one the count is empty.  Otherwise each saddle is
    seeded 1e-4 along its unstable (descending pairs) or stable (ascending
    pairs) eigen-direction w, once along +w and once along -w.

    The seeds form one H-orbit.  The saddles are one orbit of fixed points.
    Since f is H-invariant, a rotation carrying one saddle to another
    carries its Hessian eigen-directions to the other's, up to sign.  Each
    saddle's isotropy has order 2: a half-turn about the saddle's axis,
    which acts on its tangent plane by -1 and so swaps its two seeds.  So
    some rotation carries any seed to any other, and a seed's stabilizer,
    which lies in the saddle's isotropy but misses the half-turn, is trivial.
    A rotation R maps the flow line from a seed onto the one from R's image
    of the seed, so one class of trajectories holds them all, and its weight
    is the source isotropy over the stabilizer order |H| / #seeds.

    The count checks what it uses rather than assuming it:
    1. the images of the first seed's saddle and direction under the
       rotations must hit every seed's within TOL_CRITICAL_MATCH, or
       NonConvergentTrajectory is raised;
    2. the first seed alone is integrated to convergence;
    3. each other trajectory ends at the image of that endpoint under the
       first rotation carrying the first seed to its own, and that image
       must match a target within TOL_CRITICAL_MATCH, or
       SpuriousCriticalPoint is raised;
    4. the class weight is ``src.isotropy * #seeds // |H|``.
    """
    spec = func.spec
    src = _base_by_name(spec, source)
    tgt = _base_by_name(spec, target)
    if src.morse_index - tgt.morse_index != 1:
        return FlowLines(src.name, tgt.name, 0, 0, (), ())

    crits = find_critical_points(func)
    descending = src.morse_index == 1  # saddle -> minimum, following -grad
    saddle_name, far_name = (src.name, tgt.name) if descending else (tgt.name, src.name)
    saddles = [crit for crit in crits if crit.kind.name == saddle_name]
    far = [crit for crit in crits if crit.kind.name == far_name]
    targets = np.array([crit.point for crit in far])

    eig_slot = 0 if descending else 1  # unstable (negative) vs stable eigenvalue
    # two seeds per saddle, along +w and -w, in saddle order
    dirs = np.array([crit.eigendirection(eig_slot) for crit in saddles])
    dirs = np.stack([dirs, -dirs], axis=1).reshape(-1, 3)
    origins = np.repeat([crit.point for crit in saddles], 2, axis=0)
    seeds = _normalize(origins + SEED_DISPLACEMENT * dirs)

    # a seed is its saddle and its direction there; the images of the first
    # must match both of another's
    hits = np.ones((len(func.rotations), len(seeds)), dtype=bool)
    for part in (origins, dirs):
        images = func.rotations @ part[0]
        hits &= np.linalg.norm(images[:, None, :] - part, axis=-1) < TOL_CRITICAL_MATCH
    if not np.all(np.any(hits, axis=0)):
        raise NonConvergentTrajectory(
            f"{spec.label}: the rotations did not carry the first seed to every seed")

    sign = -1.0 if descending else +1.0
    first_end = targets[_integrate(func, seeds[0], sign, targets)]
    ends = func.rotations[np.argmax(hits, axis=0)] @ first_end
    gaps = np.linalg.norm(ends[:, None, :] - targets, axis=-1)
    end_of = np.argmin(gaps, axis=1)
    miss = gaps[np.arange(len(seeds)), end_of]
    if not np.all(miss <= TOL_CRITICAL_MATCH):  # a NaN miss fails
        raise SpuriousCriticalPoint(
            f"{spec.label}: a rotation carried the first endpoint {miss.max():.3e} "
            f"off the {far_name} points")

    trajectories = []
    for i, e in enumerate(end_of):
        start, end = saddles[i // 2].point, far[e].point
        if not descending:
            start, end = end, start
        trajectories.append(Trajectory(start=start, end=end))

    return FlowLines(
        source=src.name,
        target=tgt.name,
        upstairs=len(seeds),
        downstairs=1,
        weights=(src.isotropy * len(seeds) // len(func.rotations),),
        trajectories=tuple(trajectories),
    )


# ---------------------------------------------------------------------------
# the orbifold complex


@dataclass
class OrbifoldComplex:
    """The weighted Morse complex over the orientable critical orbits.

    For every supported group the saddle orbit is non-orientable (order-2
    isotropy acting by a half-turn reverses the unstable direction), so the
    generators sit in degrees 0 and 2.  The differential lowers the degree
    by one, so it is zero and is not stored; ``ranks`` are the generator
    counts per degree, those of the two-sphere.
    """

    spec_label: str
    generators: dict
    excluded: tuple
    flow_counts: dict
    ranks: tuple


def orbifold_complex(spec):
    """Assemble the orbifold Morse complex and verify its homology ranks."""
    spec = parse_group_spec(spec)
    func = build_invariant_morse(spec)
    crits = find_critical_points(func)

    by_kind = {}
    for crit in crits:
        by_kind.setdefault(crit.kind.name, []).append(crit)

    generators = {0: (), 1: (), 2: ()}
    excluded = []
    for entry in base_table(spec):
        sample = by_kind[entry.name][0]
        if sample.orientable:
            generators[entry.morse_index] = generators[entry.morse_index] + (entry.name,)
        else:
            excluded.append(entry.name)

    flow_counts = {}
    entries = {e.morse_index: e for e in base_table(spec)}
    if 1 in entries:
        for hi, lo in ((2, 1), (1, 0)):
            flow = count_flow_lines(func, entries[hi].name, entries[lo].name)
            flow_counts[(entries[hi].name, entries[lo].name)] = flow

    # generators in degrees 0 and 2 only (an orientable saddle makes the
    # degree-1 count nonzero and fails the check), so the differential
    # vanishes and homology is the generator count per degree
    ranks = tuple(len(generators[deg]) for deg in (0, 1, 2))
    if ranks != (1, 0, 1):
        raise HomologyMismatch(f"{spec.label}: homology ranks {ranks}, expected (1, 0, 1)")

    return OrbifoldComplex(
        spec_label=spec.label,
        generators=generators,
        excluded=tuple(excluded),
        flow_counts=flow_counts,
        ranks=ranks,
    )


# ---------------------------------------------------------------------------
# the index correspondence


def seifert_index_check(spec):
    """Check Morse-index gaps against covering-orbit index gaps.

    For each ordered pair of distinct orbifold points (p, q), the Morse
    index difference downstairs must equal the Conley-Zehnder index
    difference of the covering closed orbits upstairs, each taken at its
    covering multiplicity.  Pure integer bookkeeping; raises
    IndexCorrespondenceFailure on any mismatch.
    """
    spec = parse_group_spec(spec)
    entries = base_table(spec)
    cz = {e.name: make_orbit(spec, e.name, covering_multiplicity(spec, e.name)).cz
          for e in entries}
    rows = []
    failures = []
    for p in entries:
        for q in entries:
            if p.name == q.name:
                continue
            mu_p, mu_q = cz[p.name], cz[q.name]
            morse_gap = p.morse_index - q.morse_index
            cz_gap = mu_p - mu_q
            row = {
                "pair": (p.name, q.name),
                "morse_gap": morse_gap,
                "cz_gap": cz_gap,
                "cz": (mu_p, mu_q),
                "ok": morse_gap == cz_gap,
            }
            rows.append(row)
            if not row["ok"]:
                failures.append(row)
    if failures:
        raise IndexCorrespondenceFailure(
            f"{spec.label}: {len(failures)} pair(s) violate the index correspondence, "
            f"first {failures[0]}")
    return {
        "check": "seifert_index",
        "spec": spec.label,
        "instances": len(rows),
        "failures": (),
        "max_residual": 0.0,
        "rows": tuple(rows),
    }
