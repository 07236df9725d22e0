"""Numerical Conley-Zehnder machinery for paths of symplectic matrices.

This module computes the Conley-Zehnder index of nondegenerate symplectic
paths by three independent routes and cross-validates them:

* crossing forms -- locate the times where ``det(Phi(t) - Id) = 0`` and sum
  the signatures of the restricted quadratic form (``cz_crossing_form``);
* rotation numbers -- for 2x2 paths, unwrap a rotation angle and convert it
  through ``floor + ceil`` (``rotation_cz_sp2``);
* spectral flow -- count eigenvalue sign changes of the associated family
  of first-order self-adjoint operators in a Fourier truncation
  (``spectral_flow``).

It also provides the local-model paths of the linearized Reeb return map
near the critical points of a perturbing Morse function
(``local_model_path``), the Maslov winding of symplectic loops
(``maslov_loop``), Fredholm index bookkeeping for holomorphic buildings
(``building_index``), a randomized axiom checker for the index
(``cz_axiom_suite``), and a verifier for the sign relation between operator
crossings and return-map crossings (``verify_crossing_sign_lemma``).

Conventions: coordinates are ordered ``(q_1..q_n, p_1..p_n)``; the standard
complex structure is ``J0 = [[0, -I], [I, 0]]``; the symplectic form is
``omega0(x, y) = (J0 x) . y``, so that the crossing form of a path at
``t = 0`` is the generator ``S(0)`` itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import orbits as _orbits

__all__ = [
    "DriftExceeded",
    "DegenerateEndpoint",
    "IrregularCrossing",
    "UnwrapFailure",
    "EndpointDegenerate",
    "TrackingAmbiguity",
    "NoCrossingFound",
    "AxiomViolation",
    "SymmetricPath",
    "SymplecticPath",
    "CrossingRecord",
    "AsymptoticFamily",
    "standard_j",
    "solve_path",
    "solve_paths",
    "crossing_records",
    "cz_crossing_form",
    "rotation_cz_sp2",
    "maslov_loop",
    "local_model_path",
    "local_model_for",
    "path_product",
    "path_inverse",
    "path_direct_sum",
    "spectral_flow",
    "verify_crossing_sign_lemma",
    "building_index",
    "cz_axiom_suite",
]

# Tolerances (all absolute unless stated otherwise).
TOL_SYMMETRY = 1e-12        # symmetry defect allowed in a generator sample
TOL_DRIFT = 1e-8            # symplecticity drift allowed along a solved path
TOL_ENDPOINT = 1e-8         # |det(Phi(1) - Id)| must exceed this
TOL_BISECTION = 1e-10       # width to which crossing times are refined
TOL_KERNEL_REL = 1e-7       # relative singular-value threshold for kernels
TOL_DEAD_ZONE = 1e-9        # crossing-form eigenvalues below this are irregular
TOL_ENDPOINT_GAP = 1e-6     # crossings may not sit this close to an endpoint
TOL_SPECTRAL_END = 1e-6     # smallest |eigenvalue| required at family ends
TOL_TRACKING = 1e-8         # pencil roots this close in s (or to real s) coincide
MIN_SAMPLES = 512
DEFAULT_SAMPLES = 1024
DEFAULT_EPSILON = 1e-3
MAX_EPSILON = 1e-2
_BLOCK = 128                # grid cells whose RK4 increments a march builds at once
_DRAW_AHEAD = 80            # random data a draw-ahead plan draws and marches at once
_DRAW_TRIES = 40            # draws of a random nondegenerate path before giving up


class DriftExceeded(ArithmeticError):
    """A path's symplecticity residual exceeded the allowed drift."""


class DegenerateEndpoint(ArithmeticError):
    """det(Phi(1) - Id) is numerically zero; the index is undefined."""


class IrregularCrossing(ArithmeticError):
    """A crossing form has an eigenvalue inside the numerical dead zone."""


class UnwrapFailure(ArithmeticError):
    """Angle unwrapping stepped too far or could not pick a branch."""


class EndpointDegenerate(ArithmeticError):
    """An operator family endpoint has an eigenvalue too close to zero."""


class TrackingAmbiguity(ArithmeticError):
    """Eigenvalue continuation could not disambiguate a crossing."""


class NoCrossingFound(ArithmeticError):
    """A crossing was required but none could be located."""


class AxiomViolation(AssertionError):
    """A randomized index-axiom check failed."""


@functools.lru_cache(maxsize=None)
def standard_j(n):
    """The standard complex structure J0 on R^(2n), block [[0, -I], [I, 0]]; read-only."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = -np.eye(n)
    j[n:, :n] = np.eye(n)
    j.flags.writeable = False
    return j


@functools.lru_cache(maxsize=None)
def _identity(d):
    """The d x d identity; read-only."""
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


@functools.lru_cache(maxsize=None)
def _grid(m):
    """The uniform grid of m nodes on [0, 1], endpoints included; read-only."""
    ts = np.linspace(0.0, 1.0, m)
    ts.flags.writeable = False
    return ts


def _sym_defect(a):
    """Largest ``|a_ij - a_ji|`` over a stack of square matrices."""
    if a.shape[-1] == 2:
        return float(np.max(np.abs(a[..., 0, 1] - a[..., 1, 0])))
    return float(np.max(np.abs(a - np.swapaxes(a, -1, -2))))


def _drift(values, j0):
    """The symplecticity residual ``max |Phi^T J0 Phi - J0|`` over a stack.
    ``Phi^T J0`` is ``Phi^T`` with its column blocks swapped and the second
    negated, formed exactly without a product; the product with Phi stays,
    since its rounding is part of the value (see ``_drift_bound``)."""
    n = values.shape[-1] // 2
    vt = np.swapaxes(values, -1, -2)
    vt_j0 = np.concatenate([vt[..., n:], -vt[..., :n]], axis=-1)
    return float(np.max(np.abs(vt_j0 @ values - j0)))


def _drift_bound(values):
    """An upper bound on ``_drift`` of a stack without its matrix product;
    ``inf`` above Sp(2).

    In Sp(2) ``Phi^T J0 Phi - J0 = (det Phi - 1) J0``, so each node's
    residual is ``|p00 p11 - p01 p10 - 1|``, entry by entry, up to the
    rounding of the two 2-term products, which also leaves up to ``2 eps
    |p00 p10|`` and ``2 eps |p01 p11|`` on the diagonal: all within ``4 eps
    (|p00 p11| + |p01 p10| + |p00 p10| + |p01 p11| + 1)``.  On paths with
    large entries that rounding is above ``|det Phi - 1|`` itself, so the
    closed form bounds the residual but is not its value."""
    if values.shape[-1] != 2:
        return math.inf
    (p00, p01), (p10, p11) = _entries(values)
    a, b = p00 * p11, p01 * p10
    slack = np.abs(a) + np.abs(b) + np.abs(p00 * p10) + np.abs(p01 * p11) + 1.0
    return float(np.max(np.abs(a - b - 1.0) + 4.0 * np.finfo(float).eps * slack))


class SymmetricPath:
    """A path of symmetric matrices S : [0,1] -> Sym(2n): samples on a
    uniform grid plus its exact evaluator ``func``.

    Stores at least ``MIN_SAMPLES`` uniform samples (endpoints included)
    and optionally the samples ``mids`` at the cell midpoints ``ts[i] + h/2``
    (which ``solve_path`` reads).  ``at`` is one call of ``func`` at any
    time, and ``midpoints`` one per midpoint when no stack is stored.  A
    path without an evaluator raises ``ValueError``.

    ``func`` must return exactly symmetric matrices, and ``at`` returns its
    output as it is.  An evaluator that is not symmetric by construction
    (a product of matrices, a user's function) symmetrizes its own output,
    as ``from_callable`` does for the function it is given.
    """

    __slots__ = ("values", "ts", "func", "dim", "mids")

    def __init__(self, values, func, mids=None):
        if not callable(func):
            raise ValueError("a generator path needs its exact evaluator")
        values = np.asarray(values, dtype=float)
        if values.ndim != 3 or values.shape[1] != values.shape[2]:
            raise ValueError("generator samples must be an (m, d, d) array")
        if values.shape[0] < MIN_SAMPLES:
            raise ValueError(
                f"generator grid needs >= {MIN_SAMPLES} samples, got {values.shape[0]}"
            )
        if values.shape[1] % 2 != 0:
            raise ValueError("generator dimension must be even")
        if mids is not None:
            mids = np.asarray(mids, dtype=float)
            if mids.shape != (values.shape[0] - 1,) + values.shape[1:]:
                raise ValueError("midpoint samples must be an (m - 1, d, d) array")
        defect = max(_sym_defect(stack) for stack in (values, mids) if stack is not None)
        if defect > TOL_SYMMETRY:
            raise ValueError(f"generator samples not symmetric: defect {defect:.3e}")
        self.values = values
        self.ts = _grid(values.shape[0])
        self.func = func
        self.dim = values.shape[1]
        self.mids = mids

    @classmethod
    def from_callable(cls, func, samples=DEFAULT_SAMPLES):
        """The path of ``func`` on a grid of ``samples`` nodes (at least
        ``MIN_SAMPLES``), one call per node; its evaluator is ``func``
        symmetrized."""
        def symmetric(t):
            return _symmetrized(np.asarray(func(t), dtype=float))

        values = np.stack([symmetric(t) for t in _grid(max(int(samples), MIN_SAMPLES))])
        return cls(values, func=symmetric)

    @property
    def samples(self):
        return self.values.shape[0]

    def at(self, t):
        """Evaluate S(t) by the exact evaluator; it takes an array of times
        if ``func`` does."""
        return np.asarray(self.func(t), dtype=float)

    def midpoints(self):
        """S at the cell midpoints ``ts[i] + h/2``: the stored stack, else one
        evaluator call per midpoint."""
        if self.mids is not None:
            return self.mids
        return np.stack([self.at(t) for t in _midpoint_times(self.ts)])


def _symmetrized(a):
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _constant_generator(s, samples=DEFAULT_SAMPLES):
    """The constant generator path t -> s: its node and midpoint stacks are
    read-only broadcasts of one symmetrized matrix, with no evaluator call."""
    s = _symmetrized(np.asarray(s, dtype=float))
    samples = max(int(samples), MIN_SAMPLES)
    return SymmetricPath(
        np.broadcast_to(s, (samples,) + s.shape),
        func=lambda t: s,
        mids=np.broadcast_to(s, (samples - 1,) + s.shape),
    )


def _midpoint_times(ts):
    return ts[:-1] + 0.5 * (ts[1] - ts[0])


def _node_at_or_below(ts, t):
    """Index of the last node of the uniform grid ``ts`` at or below t,
    clamped to the grid."""
    m = ts.size
    i = min(max(math.floor(float(t) * (m - 1)), 0), m - 1)
    # t * (m - 1) can round to just below a node index
    if i + 1 < m and ts[i + 1] <= t:
        i += 1
    return i


class SymplecticPath:
    """A path Phi : [0,1] -> Sp(2n) with Phi(0) = Id: samples on its
    generator's grid plus its evaluator ``func``, which ``at`` calls at any
    time: a substep off the grid for a solved path (``_solved_path``), else
    a closed form or a pointwise rule (``_pointwise``).  A path without an
    evaluator raises ``ValueError``.

    Invariants checked at construction: the initial value is the identity,
    and the symplecticity residual ``Phi^T J0 Phi - J0`` stays within
    ``TOL_DRIFT`` at every sample.  ``endpoint_nondegenerate`` records
    whether ``det(Phi(1) - Id)`` clears ``TOL_ENDPOINT``.  In Sp(2) the
    closed-form bound of ``_drift_bound`` clears the check, and the residual
    ``drift`` is formed on first read; the check forms it when the bound
    does not clear.
    """

    __slots__ = ("values", "ts", "generator", "func", "n", "endpoint_nondegenerate",
                 "_residual")

    def __init__(self, values, generator, func):
        if not callable(func):
            raise ValueError("a symplectic path needs its evaluator")
        values = np.asarray(values, dtype=float)
        if values.shape[0] != generator.samples or values.shape[1] != generator.dim:
            raise ValueError("path samples must match the generator grid")
        if np.max(np.abs(values[0] - _identity(generator.dim))) > 1e-10:
            raise ValueError("path must start at the identity")
        self.n = generator.dim // 2
        self.values = values
        self._residual = None
        # a NaN bound or residual is not within the tolerance, so it raises
        if not (_drift_bound(values) <= TOL_DRIFT or self.drift <= TOL_DRIFT):
            raise DriftExceeded(
                f"symplecticity drift {self.drift:.3e} exceeds {TOL_DRIFT:.1e}"
            )
        self.ts = _grid(values.shape[0])
        self.generator = generator
        self.func = func
        self.endpoint_nondegenerate = (
            abs(float(np.linalg.det(values[-1] - _identity(2 * self.n)))) > TOL_ENDPOINT
        )

    @property
    def samples(self):
        return self.values.shape[0]

    @property
    def drift(self):
        """The symplecticity residual ``max |Phi^T J0 Phi - J0|`` over the
        samples (``_drift``), formed on first read."""
        if self._residual is None:
            self._residual = _drift(self.values, standard_j(self.n))
        return self._residual

    def at(self, t):
        """Evaluate Phi(t) by the evaluator."""
        return np.asarray(self.func(t), dtype=float)

    def endpoint(self):
        return self.values[-1]


@dataclass(frozen=True)
class CrossingRecord:
    """One solution of det(Phi(t) - Id) = 0 with its crossing-form data."""

    time: float
    kernel_dimension: int
    signature: int


class AsymptoticFamily:
    """A two-parameter generator S(s, t), s in [-1, 1], t in S^1, affine in s.

    ``func(s, t)`` must return a symmetric 2n x 2n matrix, 1-periodic in t
    exactly on the sample grid, and must be the straight line between its
    ends: ``S(s, t) = 1/2 (1 - s) S(-1, t) + 1/2 (1 + s) S(1, t)``.  The
    constructor spot-checks all three (affinity at s = -1/2, 0, 1/2 to
    relative 1e-12) and raises ``ValueError`` otherwise.  The ends are
    sampled with one call per end and grid, ``func(end, times)`` for a 1-D
    array of times, which must return the stack of the pointwise values
    bit for bit, shape ``(len(times), 2n, 2n)``; a family constant in t may
    return its one matrix instead, which is broadcast.  ``fourier_order``
    fixes the truncation used when the family is turned into self-adjoint
    operators ``A_s = -J0 d/dt - S(s, .)`` acting on loops; by affinity
    ``A_s = 1/2 (1 - s) A_-1 + 1/2 (1 + s) A_1``, so only the two ends are
    ever assembled (once per truncation order, see ``operator_ends``), and
    the generator paths ``S(s, .)`` are combined from ``S(-1, .)`` and
    ``S(1, .)`` sampled once per grid size (see ``path_at``)."""

    __slots__ = ("func", "n", "fourier_order", "name", "_ends", "_grid_ends")

    def __init__(self, func, n, fourier_order=32, name=""):
        if fourier_order < 4:
            raise ValueError("fourier truncation order must be >= 4")
        self.func = func
        self.n = int(n)
        self.fourier_order = int(fourier_order)
        self.name = name
        self._ends = {}
        self._grid_ends = {}
        for t in (0.0, 0.37, 0.74):
            vals = {s: np.asarray(func(s, t), dtype=float) for s in (-1.0, -0.5, 0.0, 0.5, 1.0)}
            for m in vals.values():
                if m.shape != (2 * self.n, 2 * self.n):
                    raise ValueError("family values must be 2n x 2n")
                if _sym_defect(m[None]) > TOL_SYMMETRY:
                    raise ValueError("family values must be symmetric")
            lo, hi = vals[-1.0], vals[1.0]
            scale = max(float(np.max(np.abs(lo))), float(np.max(np.abs(hi))))
            for s in (-0.5, 0.0, 0.5):
                line = 0.5 * (1.0 - s) * lo + 0.5 * (1.0 + s) * hi
                if np.max(np.abs(vals[s] - line)) > 1e-12 * scale:
                    raise ValueError("family is not affine in s")
        for s in (-1.0, 0.0, 1.0):
            period = np.max(np.abs(np.asarray(func(s, 0.0)) - np.asarray(func(s, 1.0))))
            if period > TOL_SYMMETRY:
                raise ValueError(f"family not 1-periodic in t: defect {period:.3e}")

    def path_at(self, s, samples=DEFAULT_SAMPLES):
        """The generator path t -> S(s, t) as a SymmetricPath, its node and
        midpoint samples the affine combination of those of ``S(-1, .)`` and
        ``S(1, .)``, which are sampled on first use per grid size, and its
        evaluator ``func(s, .)`` symmetrized."""
        samples = max(int(samples), MIN_SAMPLES)
        if samples not in self._grid_ends:
            ts = _grid(samples)
            times = np.concatenate([ts, _midpoint_times(ts)])
            self._grid_ends[samples] = (self._end_samples(-1.0, times),
                                        self._end_samples(1.0, times))
        lo, hi = self._grid_ends[samples]
        stack = _symmetrized(0.5 * (1.0 - s) * lo + 0.5 * (1.0 + s) * hi)
        return SymmetricPath(
            stack[:samples],
            func=lambda t: _symmetrized(np.asarray(self.func(s, t), dtype=float)),
            mids=stack[samples:],
        )

    def _end_samples(self, end, times):
        """``S(end, t)`` at every time of the 1-D array ``times``, from one
        call of ``func``, as a ``(len(times), 2n, 2n)`` stack."""
        d = 2 * self.n
        values = np.asarray(self.func(end, times), dtype=float)
        return np.broadcast_to(values, (len(times), d, d))

    def operator_ends(self, order):
        """The Galerkin operators ``(A_-1, A_1)`` at truncation ``order``,
        assembled on first use and kept for the family's lifetime."""
        if order not in self._ends:
            self._ends[order] = _galerkin_ends(self, order)
        return self._ends[order]


# ---------------------------------------------------------------------------
# ODE solving
# ---------------------------------------------------------------------------


def _rk4_increment(a0, a_mid, a1, h):
    """The classical Runge-Kutta step of the linear equation Phi' = A(t) Phi
    as ``Phi(t0 + h) = Phi(t0) + D Phi(t0)``, with the increment ``D`` built
    from A at t0, t0 + h/2 and t0 + h alone; one matrix or a stack of them."""
    eye = _identity(a0.shape[-1])
    k1 = a0
    k2 = a_mid @ (eye + 0.5 * h * k1)
    k3 = a_mid @ (eye + 0.5 * h * k2)
    k4 = a1 @ (eye + h * k3)
    return (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def solve_paths(generators):
    """Integrate Phi' = J0 S(t) Phi, Phi(0) = Id with one-step Runge-Kutta
    for every generator of a list, all on one grid and of one dimension
    (``ValueError`` otherwise); returns the paths in order.

    The paths are the columns of one march (``_march``), each checked by
    ``SymplecticPath`` as it is built.  No re-orthonormalization is
    applied: the symplecticity drift is kept as an accuracy witness and
    ``DriftExceeded`` is raised if it passes ``TOL_DRIFT``.
    """
    generators = list(generators)
    if not generators:
        return []
    values = _march(generators)
    return [_solved_path(values[:, k], g) for k, g in enumerate(generators)]


def _solved_path(values, generator):
    """The path solved from ``generator``, its node samples ``values`` (a
    column of a march).  Its evaluator returns the stored sample at a grid
    node, else one Runge-Kutta substep off the nearest lower node; the last
    read is kept, read-only, and returned again for the same t, since the
    evaluators of a product or an inverse read their operand twice per
    time, once for the value and once for the generator."""
    values = np.ascontiguousarray(values)
    ts, j0 = generator.ts, standard_j(generator.dim // 2)

    @functools.lru_cache(maxsize=1)
    def substep(t):
        i0 = _node_at_or_below(ts, t)
        t0 = ts[i0]
        h = float(t) - t0
        if abs(h) < 1e-15:
            return values[i0]
        step = _rk4_increment(
            j0 @ generator.at(t0), j0 @ generator.at(t0 + 0.5 * h), j0 @ generator.at(t0 + h), h
        )
        value = values[i0] + step @ values[i0]
        value.flags.writeable = False
        return value

    return SymplecticPath(values, generator, func=substep)


def _march(generators):
    """The node-major stack ``values[i, k] = Phi_k(t_i)`` of the paths of a
    nonempty list of generators on one grid and of one dimension
    (``ValueError`` otherwise); no path is built, so no guard runs.

    The Runge-Kutta increments ``D_i`` are built from the node and midpoint
    samples of S for ``_BLOCK`` grid cells of all paths at a time, and
    chained, ``Phi_{i+1} = Phi_i + D_i Phi_i``, once for the whole stack of
    paths, in place on one node's block of the result at a time.  A stacked
    matrix product computes each matrix as the single product does, so
    every path is bit for bit the one solved alone, whatever the blocks.
    """
    first = generators[0]
    if any(g.samples != first.samples or g.dim != first.dim for g in generators):
        raise ValueError("paths solved together must share one grid and one dimension")
    j0 = standard_j(first.dim // 2)
    nodes = [g.values for g in generators]
    mids = [g.midpoints() for g in generators]
    h = first.ts[1] - first.ts[0]
    cells = first.samples - 1
    values = np.empty((first.samples, len(generators), first.dim, first.dim))
    values[0] = _identity(first.dim)
    for start in range(0, cells, _BLOCK):
        stop = min(start + _BLOCK, cells)
        # node-major blocks: row i holds node start + i of every path, so
        # each step of the chain reads and writes contiguous blocks
        a = j0 @ np.stack([v[start:stop + 1] for v in nodes], axis=1)
        a_mid = j0 @ np.stack([v[start:stop] for v in mids], axis=1)
        increments = _rk4_increment(a[:-1], a_mid, a[1:], h)
        for step, node, following in zip(increments, values[start:stop],
                                         values[start + 1:stop + 1]):
            np.matmul(step, node, out=following)
            np.add(node, following, out=following)
    return values


def solve_path(generator):
    """``solve_paths`` for one generator."""
    return solve_paths([generator])[0]


# ---------------------------------------------------------------------------
# Crossing-form index
# ---------------------------------------------------------------------------


def _signature(sym, context="", error=IrregularCrossing):
    """Signature of the symmetric part of a square form; ``error`` if an
    eigenvalue lies within ``TOL_DEAD_ZONE`` times ``max(1, max|eig|)`` of 0.

    A 1x1 form is its entry.  A 2x2 form ``[[a, b], [b, d]]`` has the
    eigenvalue of larger modulus ``big = mean + copysign(hypot((a - d)/2,
    b), mean)`` with ``mean = (a + d)/2``, free of cancellation, and the
    other one ``det/big``.  Larger forms call ``eigvalsh``."""
    d = sym.shape[-1]
    if d == 1:
        eigs = [float(sym[0, 0])]
    elif d == 2:
        (a, b), (c, e) = sym.tolist()
        off, mean = 0.5 * (b + c), 0.5 * (a + e)
        big = mean + math.copysign(math.hypot(0.5 * (a - e), off), mean)
        eigs = [big, (a * e - off * off) / big if big != 0.0 else 0.0]
    else:
        eigs = np.linalg.eigvalsh(0.5 * (sym + sym.T)).tolist()
    scale = max(1.0, max(abs(x) for x in eigs))
    # a NaN eigenvalue is not outside the dead zone either
    if not all(abs(x) >= TOL_DEAD_ZONE * scale for x in eigs):
        raise error(
            f"crossing form eigenvalue inside dead zone {TOL_DEAD_ZONE:.1e}{context}"
        )
    return sum(x > 0 for x in eigs) - sum(x < 0 for x in eigs)


def _entries(m):
    """The entries of a matrix or of a stack, as ``e[i][j]``: Python floats
    for one matrix, whose arithmetic is much cheaper per call than numpy's,
    and a view per entry across a stack.  Both round each operation alike,
    so one closed form gives a matrix the bits of its row of the stack."""
    return m.tolist() if m.ndim == 2 else np.moveaxis(m, (-2, -1), (0, 1))


def _laplace4(e):
    """``det m`` of a 4x4 matrix or stack from its entries ``e`` (see
    ``_entries``) by the Laplace expansion along rows (0, 1): the sum over
    column pairs P of ``sign(P) top(P) bottom(P^c)``, with ``top`` and
    ``bottom`` the 2x2 minors of rows (0, 1) and (2, 3).  Returns the
    determinant and the twelve minors, which ``_cofactors4`` reuses."""
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = e
    top = (a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0,
           a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2)
    bottom = (c0 * d1 - c1 * d0, c0 * d2 - c2 * d0, c0 * d3 - c3 * d0,
              c1 * d2 - c2 * d1, c1 * d3 - c3 * d1, c2 * d3 - c3 * d2)
    t01, t02, t03, t12, t13, t23 = top
    u01, u02, u03, u12, u13, u23 = bottom
    det = t01 * u23 - t02 * u13 + t03 * u12 + t12 * u03 - t13 * u02 + t23 * u01
    return det, top, bottom


def _cofactors4(e, top, bottom):
    """Cofactor matrix of a 4x4 matrix or stack as nested rows, from its
    entries and the minors of ``_laplace4``: each cofactor of a top row is
    the 3x3 minor expanded along the other top row, whose 2x2 minors are
    bottom minors, and likewise for the bottom rows."""
    def rows(m, first, second):
        # the cofactors of the first and the second row of a row pair,
        # with m the six 2x2 minors of the complementary row pair
        m01, m02, m03, m12, m13, m23 = m
        x0, x1, x2, x3 = second
        y0, y1, y2, y3 = first
        return ((x1 * m23 - x2 * m13 + x3 * m12, x2 * m03 - x0 * m23 - x3 * m02,
                 x0 * m13 - x1 * m03 + x3 * m01, x1 * m02 - x0 * m12 - x2 * m01),
                (y2 * m13 - y1 * m23 - y3 * m12, y0 * m23 - y2 * m03 + y3 * m02,
                 y1 * m03 - y0 * m13 - y3 * m01, y0 * m12 - y1 * m02 + y2 * m01))

    return (*rows(bottom, e[0], e[1]), *rows(top, e[2], e[3]))


def _dot4(x, y):
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2] + x[3] * y[3]


def _det_minus_id_values(phi):
    """``g = det(Phi - Id)`` of one matrix or a stack.  In Sp(2) it is
    ``det Phi - tr Phi + 1`` and is taken as ``2 - tr Phi``: for 2x2
    matrices ``Phi^T J0 Phi = det(Phi) J0``, so the two differ by
    ``|det Phi - 1|``, which is the symplecticity drift at a grid node.  The
    drift is at most ``TOL_DRIFT`` = ``TOL_ENDPOINT`` < ``|g(1)|``, so the
    sign of g at the endpoint cannot flip.  In Sp(4) it is the Laplace
    expansion of ``_laplace4``, bit for bit the node scan's value.  No
    other dimension reaches it (``crossing_records``)."""
    if phi.shape[-1] == 2:
        return 2.0 - (phi[..., 0, 0] + phi[..., 1, 1])
    return _laplace4(_entries(phi - _identity(4)))[0]


def _det_minus_id(path, t):
    return float(_det_minus_id_values(path.at(t)))


def _det_and_slope_values(phi, s):
    """``g = det(Phi - Id)`` and its exact derivative along Phi' = J0 S Phi,
    for one matrix or a stack.

    In Sp(2) ``g = 2 - tr Phi`` (see ``_det_minus_id_values``) and ``g' =
    -tr(J0 S Phi) = S10 Phi00 + S11 Phi10 - S00 Phi01 - S01 Phi11``.  In
    Sp(4), Jacobi's formula gives ``g' = tr(adj(M) J0 S Phi)`` with ``M =
    Phi - Id``; g and the cofactors of M come from the Laplace expansion of
    ``_laplace4``, and since ``Phi adj(M) = (M + Id) adj(M) = g Id + adj(M)``
    and ``tr(J0 S) = 0`` for symmetric S, ``g'`` is taken as ``tr(adj(M) J0
    S)``: ``J0 S`` has rows ``-S2, -S3, S0, S1``, so no product with Phi is
    formed.  Both are computed entry by entry, so one matrix gets the bits
    of its row of a stack."""
    if phi.shape[-1] == 2:
        p, q = _entries(phi), _entries(s)
        slope = q[1][0] * p[0][0] + q[1][1] * p[1][0] - q[0][0] * p[0][1] - q[0][1] * p[1][1]
        return _det_minus_id_values(phi), slope
    e = _entries(phi - _identity(4))
    det, top, bottom = _laplace4(e)
    c0, c1, c2, c3 = _cofactors4(e, top, bottom)
    s0, s1, s2, s3 = _entries(s)
    return det, _dot4(c2, s0) + _dot4(c3, s1) - _dot4(c0, s2) - _dot4(c1, s3)


def _det_and_slope(path, t):
    return _det_and_slope_values(path.at(t), path.generator.at(t))


def _bracketed_root(f, a, b, fa, fb):
    """Root of a function ``f`` of one time on [a, b], where f(a) = fa and
    f(b) = fb differ in sign: Illinois regula falsi (the value kept at an
    end that survives two steps in a row is halved; Dowell and Jarratt, BIT
    11, 1971), with every step at least ``TOL_BISECTION / 2`` long so that
    the bracket closes, then one secant step across the final bracket.  The
    previous point is an end of the bracket, so a nudge that would leave it
    goes the other way, into the bracket."""
    wa = wb = 1.0
    x, side = None, 0
    while b - a > TOL_BISECTION:
        x_new = (a * wb * fb - b * wa * fa) / (wb * fb - wa * fa)
        if x is not None and abs(x_new - x) < 0.5 * TOL_BISECTION:
            step = math.copysign(0.5 * TOL_BISECTION, x_new - x)
            x_new = x + step if a < x + step < b else x - step
        x = x_new if a < x_new < b else 0.5 * (a + b)
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx < 0) == (fa < 0):
            a, fa, wa = x, fx, 1.0
            wb *= 0.5 if side < 0 else 1.0
            side = -1
        else:
            b, fb, wb = x, fx, 1.0
            wa *= 0.5 if side > 0 else 1.0
            side = 1
    return (a * fb - b * fa) / (fb - fa)


def _kernel_basis(m):
    """Orthonormal columns spanning the numerical kernel of a square matrix:
    the right singular vectors whose singular value is below
    ``TOL_KERNEL_REL`` times ``max(1, sigma_1)``.

    For 2x2, ``sigma_1 = (sqrt(F^2 + 2|det|) + sqrt(F^2 - 2|det|)) / 2``
    from the Frobenius norm F, and ``sigma_2 = |det| / sigma_1``, which has
    no cancellation.  A kernel of dimension 1 is the unit vector
    perpendicular to the longer row, one of dimension 2 the identity
    columns.  Larger matrices call ``svd``."""
    if m.shape[-1] == 2:
        (a, b), (c, d) = m.tolist()
        det = abs(a * d - b * c)
        f2 = a * a + b * b + c * c + d * d
        sigma1 = 0.5 * (math.sqrt(f2 + 2.0 * det) + math.sqrt(max(f2 - 2.0 * det, 0.0)))
        threshold = TOL_KERNEL_REL * max(1.0, sigma1)
        if sigma1 < threshold:
            return _identity(2)
        if det / sigma1 >= threshold:
            return np.empty((2, 0))
        x, y = (a, b) if a * a + b * b >= c * c + d * d else (c, d)
        r = math.hypot(x, y)
        return np.array([[-y / r], [x / r]])
    u, sig, vt = np.linalg.svd(m)
    scale = max(1.0, float(sig[0]))
    mask = sig < TOL_KERNEL_REL * scale
    return vt[mask].T  # columns span the kernel


def crossing_records(path):
    """Locate all interior crossings of ``g(t) = det(Phi(t) - Id) = 0``.

    g and g' (``_det_and_slope_values``) are read at every grid node and
    each cell has one rule.  Every bracket is refined by ``_bracketed_root``,
    a sign change of g as a root of g.  In a same-sign cell, ``sign(g) g'``
    turning from negative to nonnegative marks a minimum t* of |g|, refined
    as a root of g': a touch if ``|g(t*)| < 1e-8 max|g|``, two sign changes
    if g(t*) has the other sign.  In the first cell, where g(0) = 0,
    ``g ~ t^(2n) det S(0)`` near 0, so a sign change between ``det S(0)``
    and ``g(ts[1])`` is refined on ``[TOL_ENDPOINT_GAP, ts[1]]``.  No cell
    may hold two extrema of g.  Candidates are confirmed through the
    singular values of Phi(t*) - Id; crossings within ``TOL_ENDPOINT_GAP``
    of an endpoint raise ``IrregularCrossing``.  Paths in Sp(2) and Sp(4)
    are accepted: the return maps are in Sp(2) and the axiom suite's direct
    sums in Sp(4); a larger path raises ``ValueError``.
    """
    if path.n > 2:
        raise ValueError(f"crossing forms are computed in Sp(2) and Sp(4), not Sp({2 * path.n})")
    if not path.endpoint_nondegenerate:
        raise DegenerateEndpoint(
            "det(Phi(1) - Id) is within tolerance of zero; the path is degenerate"
        )
    ts = path.ts
    g, slope = _det_and_slope_values(path.values, path.generator.values)
    scale = max(1.0, float(np.max(np.abs(g))))
    j0 = standard_j(path.n)
    det = lambda t: _det_minus_id(path, t)
    times = []
    if float(np.linalg.det(path.generator.values[0])) * g[1] < 0.0:
        g_gap = det(TOL_ENDPOINT_GAP)
        if g_gap * g[1] >= 0.0:
            raise IrregularCrossing(f"a crossing sits within {TOL_ENDPOINT_GAP:.0e} of t = 0")
        times.append(_bracketed_root(det, TOL_ENDPOINT_GAP, ts[1], g_gap, g[1]))
    abs_slope = np.sign(g) * slope  # the slope of |g|
    ends = g[1:-1] * g[2:]
    cells = (ends < 0.0) | (g[1:-1] == 0.0) | (
        (ends > 0.0) & (abs_slope[1:-1] < 0.0) & (abs_slope[2:] >= 0.0)
    )
    for i in np.nonzero(cells)[0] + 1:
        a, b = ts[i], ts[i + 1]
        if g[i] == 0.0:
            times.append(float(a))
        elif ends[i - 1] < 0.0:
            times.append(_bracketed_root(det, a, b, g[i], g[i + 1]))
        else:
            t_min = _bracketed_root(lambda t: _det_and_slope(path, t)[1],
                                    a, b, slope[i], slope[i + 1])
            g_min = det(t_min)
            if abs(g_min) < 1e-8 * scale:
                times.append(t_min)
            elif g_min * g[i] < 0.0:
                times += [_bracketed_root(det, a, t_min, g[i], g_min),
                          _bracketed_root(det, t_min, b, g_min, g[i + 1])]
    records = []
    for t_star in times:
        if t_star < TOL_ENDPOINT_GAP or t_star > 1.0 - TOL_ENDPOINT_GAP:
            raise IrregularCrossing(
                f"crossing at t = {t_star:.3e} sits within {TOL_ENDPOINT_GAP:.0e} of an endpoint"
            )
        phi = path.at(t_star)
        kernel = _kernel_basis(phi - _identity(2 * path.n))
        if kernel.shape[1] == 0:
            continue  # a near-miss dip, not a crossing
        phi_dot = j0 @ path.generator.at(t_star) @ phi
        # Crossing form Gamma(v) = omega0(v, Phi'(t*) v) restricted to the kernel.
        w = (j0 @ kernel).T @ (phi_dot @ kernel)
        sig = _signature(w, context=f" at t = {t_star:.6f}")
        records.append(CrossingRecord(float(t_star), int(kernel.shape[1]), sig))
    return records


def cz_crossing_form(path):
    """Conley-Zehnder index as 1/2 Sign(S(0)) plus the sum of interior
    crossing signatures.  ``_signature`` admits no zero eigenvalue, so the
    signature of the 2n x 2n form S(0) is even and its half exact."""
    records = crossing_records(path)
    s0 = path.generator.at(0.0)
    sign0 = _signature(s0, context=" at t = 0 (initial crossing form)")
    return sign0 // 2 + sum(r.signature for r in records)


# ---------------------------------------------------------------------------
# Rotation numbers in Sp(2)
# ---------------------------------------------------------------------------


def _unwrapped_angle(values, what):
    ang = np.unwrap(np.arctan2(values.imag, values.real))
    steps = np.abs(np.diff(ang))
    if steps.size and float(np.max(steps)) > 0.5 * math.pi:
        raise UnwrapFailure(
            f"{what}: angle step {float(np.max(steps)):.3f} exceeds pi/2; refine the grid"
        )
    return ang


def rotation_cz_sp2(path):
    """Rotation number and index of a nondegenerate path in Sp(2).

    Elliptic endpoints: the angle of the conjugated-rotation invariant
    ``w(t) = tr Phi(t) + i (Phi21 - Phi12)`` is unwrapped along the path and
    the endpoint eigenvalue angle pins the rotation number to the nearest
    admissible branch ``j +- rho``, ``rho = acos(tr Phi(1) / 2) / 2 pi``.
    That branch is within 1/4 of the winding ``delta``, so no guard checks
    it: for ``Phi(1) = P R(theta) P^-1`` with ``det P = 1``, ``Re w(1) = 2
    cos theta`` and ``Im w(1) = sin theta tr(P P^T)`` with ``tr(P P^T) >=
    2``, so ``w(1)`` lies in the quadrant of ``theta = +-2 pi rho``, and
    ``delta`` modulo 1 in the quarter turn of ``rho`` or of ``1 - rho``.
    Hyperbolic endpoints: the winding of a real eigenvector image ``Phi(t)
    v`` is integer or half-integer.  In both cases ``mu = floor(theta) +
    ceil(theta)``.
    """
    if path.n != 1:
        raise ValueError("rotation_cz_sp2 requires a path in Sp(2)")
    if not path.endpoint_nondegenerate:
        raise DegenerateEndpoint("endpoint has eigenvalue 1 within tolerance")
    end = path.endpoint()
    tr = float(end[0, 0] + end[1, 1])
    if abs(tr) < 2.0:
        w = (path.values[:, 0, 0] + path.values[:, 1, 1]) + 1j * (
            path.values[:, 1, 0] - path.values[:, 0, 1]
        )
        ang = _unwrapped_angle(w, "elliptic rotation form")
        delta = (ang[-1] - ang[0]) / (2.0 * math.pi)
        rho = math.acos(max(-1.0, min(1.0, tr / 2.0))) / (2.0 * math.pi)
        best = None
        for j in range(int(math.floor(delta)) - 2, int(math.ceil(delta)) + 3):
            for branch in (+1, -1):
                cand = j + branch * rho
                if best is None or abs(cand - delta) < abs(best[0] - delta):
                    best = (cand, j, branch)
        theta, j, branch = best
        mu = 2 * j + 1 if branch > 0 else 2 * j - 1
        return float(theta), int(mu)
    # Hyperbolic: wind the image of an eigenvector of the endpoint.
    eigvals, eigvecs = np.linalg.eig(end)
    idx = int(np.argmax(np.abs(eigvals)))
    v = np.real(eigvecs[:, idx])
    v /= np.linalg.norm(v)
    u = path.values @ v
    ang = _unwrapped_angle(u[:, 0] + 1j * u[:, 1], "hyperbolic eigenvector winding")
    two_theta = (ang[-1] - ang[0]) / math.pi
    mu = int(round(two_theta))
    if abs(two_theta - mu) > 1e-4:
        raise UnwrapFailure(
            f"hyperbolic winding {two_theta / 2.0:.6f} is not a half-integer"
        )
    return 0.5 * mu, mu


def maslov_loop(path):
    """Maslov index of a symplectic loop: the winding of ``det((A + D) +
    i (C - B))`` over the nodes ``Phi = [[A, B], [C, D]]``.

    ``((A + D) + i (C - B)) / 2`` is the complex-linear part of Phi, whose
    singular values are >= 1 on Sp(2n) and which is the unitary polar factor
    ``X + i Y`` on U(n), so its determinant winds as that of the polar
    factor (McDuff-Salamon, Introduction to Symplectic Topology, 2.2).  In
    Sp(2) it is ``tr Phi + i (Phi10 - Phi01)``, the ``w`` of
    ``rotation_cz_sp2``.  A loop whose determinant falls below ``2^n / 2``
    in modulus is not symplectic and raises ``ValueError``.

    The winding is an integer to within about 1e-8, so it is rounded
    unchecked: Phi(0) is the identity within 1e-10 and Phi(1) within 1e-8
    of Phi(0), so the determinant at either end is ``2^n`` up to a few times
    1e-8 of it, and ``np.unwrap`` changes the angle only by whole turns."""
    if np.max(np.abs(path.endpoint() - path.values[0])) > 1e-8:
        raise ValueError("maslov_loop requires a loop: Phi(1) must equal Phi(0)")
    n, v = path.n, path.values
    if n == 1:
        dets = (v[:, 0, 0] + v[:, 1, 1]) + 1j * (v[:, 1, 0] - v[:, 0, 1])
    else:
        dets = np.linalg.det((v[:, :n, :n] + v[:, n:, n:]) + 1j * (v[:, n:, :n] - v[:, :n, n:]))
    if float(np.min(np.abs(dets))) < 2.0 ** n / 2.0:
        raise ValueError("loop leaves Sp(2n): its complex-linear part is nearly singular")
    ang = _unwrapped_angle(dets, "complex-linear determinant winding")
    return int(round((ang[-1] - ang[0]) / (2.0 * math.pi)))


# ---------------------------------------------------------------------------
# Local models of the linearized return map
# ---------------------------------------------------------------------------


def _local_model_entries(tau, a, b, h, m0, xp):
    """The entries of ``S(tau) = a Id - b R h R^T`` and of
    ``Phi(tau) = R exp(tau m0)``, with ``R = R(a tau)`` the rotation and
    ``m0`` traceless, as ``(s00, s01, s10, s11), (p00, p01, p10, p11)``.

    ``xp`` is ``numpy`` for an array of times and ``math`` for one float,
    much cheaper per point.  ``R h R^T = p Id + [[u, v], [v, -u]]`` with
    ``(u, v)`` the traceless part ``((h00 - h11)/2, h01)`` turned by twice
    the angle, so S is exactly symmetric.  ``exp(tau m0) = C(r) Id +
    (S(r)/w) m0`` with ``r = tau w``, ``w = sqrt|delta|``, ``delta = det m0``
    and ``C, S = cos, sin`` (``cosh, sinh`` when ``delta < 0``); it is
    ``Id + tau m0`` when ``delta`` underflows to 0.
    """
    (h00, h01), (_, h11) = h
    (m00, m01), (m10, m11) = m0
    ca, sa = xp.cos(a * tau), xp.sin(a * tau)
    c2, s2 = ca * ca - sa * sa, 2.0 * sa * ca
    u0, v0 = 0.5 * (h00 - h11), h01
    u, v = u0 * c2 - v0 * s2, u0 * s2 + v0 * c2
    diag = a - b * (0.5 * (h00 + h11))
    s_off = -b * v
    delta = m00 * m11 - m01 * m10
    if delta > 0.0:
        w = math.sqrt(delta)
        c, s_over_w = xp.cos(w * tau), xp.sin(w * tau) / w
    elif delta < 0.0:
        w = math.sqrt(-delta)
        c, s_over_w = xp.cosh(w * tau), xp.sinh(w * tau) / w
    else:
        c, s_over_w = 1.0, tau
    e00, e01 = c + s_over_w * m00, s_over_w * m01
    e10, e11 = s_over_w * m10, c + s_over_w * m11
    return (diag - b * u, s_off, s_off, diag + b * u), (
        ca * e00 - sa * e10,
        ca * e01 - sa * e11,
        sa * e00 + ca * e10,
        sa * e01 + ca * e11,
    )


def local_model_path(f_value, hessian, eps=DEFAULT_EPSILON, k=1, samples=None):
    """Linearized return-map path near a critical point of the perturbing
    function: ``Phi(tau) = R(a tau) exp(-b tau J0 H)`` on tau in [0, 1] with
    ``a = 4 pi k``, ``b = 2 pi k eps / f_eps`` and ``f_eps = 1 + eps f``.

    ``k`` counts turns around the fiber; integer values model contractible
    lifts and rational values extend the same model over one period of a
    non-contractible orbit.  For integer k the crossing-form index is
    ``4k + index(H) - 1``.

    The closed form is written once, entry by entry, in
    ``_local_model_entries``: the grid samples are one call of it on the
    array of nodes, and the evaluators that off-grid reads call are one
    call on a single float, so both agree to a few ulps.  The two
    evaluators share that call: Phi and S at the last time read.
    """
    if not 0.0 < eps <= MAX_EPSILON:
        raise ValueError(f"eps must lie in (0, {MAX_EPSILON}], got {eps}")
    k = Fraction(k)
    if k <= 0:
        raise ValueError("fiber turning number k must be positive")
    h = np.asarray(hessian, dtype=float)
    if h.shape != (2, 2) or abs(h[0, 1] - h[1, 0]) > TOL_SYMMETRY:
        raise ValueError("hessian must be a symmetric 2x2 matrix")
    if abs(np.linalg.det(h)) < 1e-12:
        raise ValueError("hessian must be nondegenerate")
    f_eps = 1.0 + eps * float(f_value)
    if f_eps <= 0.0:
        raise ValueError("perturbed value 1 + eps*f must be positive")
    kf = float(k)
    a = 4.0 * math.pi * kf
    b = 2.0 * math.pi * kf * eps / f_eps
    model = (a, b, h.tolist(), (-b * (standard_j(1) @ h)).tolist())

    @functools.lru_cache(maxsize=1)
    def entries(tau):
        return _local_model_entries(tau, *model, math)

    def phi(tau):
        return np.array(entries(tau)[1]).reshape(2, 2)

    def gen(tau):
        return np.array(entries(tau)[0]).reshape(2, 2)

    if samples is None:
        # 64 nodes per radian of fiber rotation keep every extremum of g in
        # a cell of its own; a saddle's near-resonant crossing pair, often
        # closer than a cell, shares one and is split at its minimum.
        samples = max(DEFAULT_SAMPLES, 64 * (int(a) + 1))
    s, p = _local_model_entries(_grid(max(int(samples), MIN_SAMPLES)), *model, np)
    return SymplecticPath(
        np.stack(p, axis=-1).reshape(-1, 2, 2),
        SymmetricPath(np.stack(s, axis=-1).reshape(-1, 2, 2), func=gen),
        func=phi,
    )


def local_model_for(orbit, eps=DEFAULT_EPSILON):
    """Local-model path of a Reeb orbit's linearized return map.

    The critical value and Hessian are read off the orbit's base type
    (minimum, saddle, maximum) and the turning number is the orbit
    multiplicity divided by the covering multiplicity of its base.
    """
    cov = _orbits.covering_multiplicity(orbit.group, orbit.base)
    if orbit.sign < 0:
        f_value, hess = -1.0, np.diag([1.0, 1.0])
    elif orbit.sign == 0:
        f_value, hess = 0.0, np.diag([1.0, -1.0])
    else:
        f_value, hess = 1.0, np.diag([-1.0, -1.0])
    return local_model_path(f_value, hess, eps=eps, k=Fraction(orbit.k, cov))


# ---------------------------------------------------------------------------
# Path algebra (products, inverses, direct sums)
# ---------------------------------------------------------------------------


def _pointwise(phi_of, gen_of, *paths):
    """The path ``t -> phi_of(P(t), Q(t), ...)`` of paths on one grid
    (``ValueError`` otherwise), with generator ``gen_of(P(t), S_P(t),
    S_Q(t), ...)`` symmetrized against rounding: the generator rule reads
    the first operand's value and every operand's generator.

    Each rule is one expression that takes single matrices and stacks
    alike: it is applied once to the operands' grid stacks for the
    samples, and once per time to their ``at`` values for the evaluators.
    """
    samples = [p.samples for p in paths]
    if len(set(samples)) > 1:
        raise ValueError("paths combined pointwise must share one grid, got "
                         f"{' and '.join(map(str, samples))} nodes")
    first = paths[0]

    def gen(t):
        return _symmetrized(gen_of(first.at(t), *(p.generator.at(t) for p in paths)))

    def func(t):
        return phi_of(*(p.at(t) for p in paths))

    s_vals = _symmetrized(gen_of(first.values, *(p.generator.values for p in paths)))
    return SymplecticPath(phi_of(*(p.values for p in paths)), SymmetricPath(s_vals, func=gen),
                          func=func)


def path_product(p, q):
    """Pointwise product path t -> P(t) Q(t) of two paths of one dimension
    on one grid (``ValueError`` otherwise), generator
    ``S_P + J0 P J0 S_Q J0 P^T J0``, which is symmetric for symplectic P."""
    if p.n != q.n:
        raise ValueError("paths must share a dimension")
    j0 = standard_j(p.n)
    return _pointwise(
        lambda a, b: a @ b,
        lambda a, s_a, s_b: s_a + j0 @ a @ j0 @ s_b @ j0 @ np.swapaxes(a, -1, -2) @ j0,
        p, q,
    )


def path_inverse(p):
    """Pointwise inverse path t -> P(t)^{-1} = -J0 P^T J0, generator -P^T S P."""
    j0 = standard_j(p.n)
    return _pointwise(
        lambda a: -j0 @ np.swapaxes(a, -1, -2) @ j0,
        lambda a, s_a: -(np.swapaxes(a, -1, -2) @ s_a @ a),
        p,
    )


def _interleave_indices(n1, n2):
    """Index map embedding R^(2n1) x R^(2n2) into R^(2(n1+n2)) with the
    (q..., p...) coordinate convention."""
    n = n1 + n2
    first = list(range(n1)) + list(range(n, n + n1))
    second = list(range(n1, n)) + list(range(n + n1, 2 * n))
    return first, second


def path_direct_sum(p, q):
    """Direct-sum path in Sp(2(n1+n2)) of two paths on one grid
    (``ValueError`` otherwise), with block coordinates interleaved into the
    (q..., p...) convention."""
    d = 2 * (p.n + q.n)
    i1, i2 = _interleave_indices(p.n, q.n)
    block1 = (Ellipsis,) + np.ix_(i1, i1)
    block2 = (Ellipsis,) + np.ix_(i2, i2)

    def embed(a, b):
        m = np.zeros(a.shape[:-2] + (d, d))
        m[block1] = a
        m[block2] = b
        return m

    return _pointwise(embed, lambda _a, s_a, s_b: embed(s_a, s_b), p, q)


# ---------------------------------------------------------------------------
# Spectral flow
# ---------------------------------------------------------------------------


def _galerkin_ends(family, k):
    """Galerkin truncations of A_s = -J0 d/dt - S(s, .) on loops at s = -1
    and s = 1.

    Real Fourier basis per coordinate: 1, sqrt2 cos(2 pi m t),
    sqrt2 sin(2 pi m t) for m = 1..K, ordered (mode, coordinate); each
    result is a symmetric matrix of size 2n(2K+1).  ``S`` is sampled at
    ``max(256, 8K)`` quadrature points, one ``func`` call per end, and each
    coordinate pair (u, v) contributes the Gram block
    ``(basis * S_uv) @ basis^T`` through BLAS."""
    d = 2 * family.n
    m_quad = max(256, 8 * k)
    ts = np.arange(m_quad) / m_quad
    basis = np.empty((2 * k + 1, m_quad))
    basis[0] = 1.0
    for m in range(1, k + 1):
        basis[2 * m - 1] = math.sqrt(2.0) * np.cos(2.0 * math.pi * m * ts)
        basis[2 * m] = math.sqrt(2.0) * np.sin(2.0 * math.pi * m * ts)
    dim = d * (2 * k + 1)
    j0 = standard_j(family.n)
    ends = []
    for s in (-1.0, 1.0):
        svals = family._end_samples(s, ts)
        a = np.empty((dim, dim))
        for u in range(d):
            for v in range(d):
                a[u::d, v::d] = -((basis * svals[:, u, v]) @ basis.T) / m_quad
        for m in range(1, k + 1):
            c = (2 * m - 1) * d
            sblk = (2 * m) * d
            a[sblk : sblk + d, c : c + d] += 2.0 * math.pi * m * j0
            a[c : c + d, sblk : sblk + d] += -2.0 * math.pi * m * j0
        ends.append(0.5 * (a + a.T))
    return tuple(ends)


def _operator_matrix(family, s, order=None):
    """The truncated operator A_s, symmetric of size 2n(2K+1), as the
    affine combination 1/2 (1 - s) A_-1 + 1/2 (1 + s) A_1 of the family's
    assembled ends."""
    a_minus, a_plus = family.operator_ends(family.fourier_order if order is None else order)
    return 0.5 * (1.0 - s) * a_minus + 0.5 * (1.0 + s) * a_plus


def _neg_count(eigs):
    return int(np.sum(eigs < 0.0))


def _locate_crossings(family, order):
    """The crossings of the operator family as the real roots of one pencil.

    The family is affine in s (``AsymptoticFamily``'s contract), so
    ``A_s = A_-1 + (1 + s) D`` with ``D = 1/2 (A_1 - A_-1)``, and ``A_s`` has
    a kernel exactly when ``mu = -1/(1 + s)`` is an eigenvalue of
    ``A_-1^{-1} D`` (``A_-1`` is invertible past the endpoint guard).  One
    ``eigvals`` gives every crossing time: the roots ``s`` in (-1, 1) within
    ``TOL_TRACKING`` of the real axis (a double crossing may come out as a
    complex pair a rounding error off it), roots closer than ``TOL_TRACKING``
    merged.  At each time one ``eigh`` of ``A_{s*}`` gives the kernel
    (eigenvalues below 1e-5 in modulus); the direction is minus the
    signature of the crossing form ``eta^T D eta`` on it (Robbin-Salamon).
    A kernel whose dimension is not the number of merged roots, or a
    crossing form inside ``TOL_DEAD_ZONE``, is an eigenvalue touching zero
    without a resolvable crossing and raises ``TrackingAmbiguity``.

    Returns the crossings in order of s as dicts with the time ``s``, the
    ``direction`` (change of the negative count) and the ``kernel`` basis as
    columns, and the flow ``neg(A_1) - neg(A_-1)``.
    """
    a_minus, a_plus = family.operator_ends(order)
    end_eigs = [np.linalg.eigvalsh(a) for a in (a_minus, a_plus)]
    for s_end, eigs in zip((-1.0, 1.0), end_eigs):
        if np.min(np.abs(eigs)) <= TOL_SPECTRAL_END:
            raise EndpointDegenerate(
                f"family endpoint s = {s_end:+.0f} has an eigenvalue within"
                f" {TOL_SPECTRAL_END:.0e} of zero"
            )
    da = 0.5 * (a_plus - a_minus)
    mu = np.linalg.eigvals(np.linalg.solve(a_minus, da))
    times = -1.0 / mu[mu.real < -0.5] - 1.0
    times = np.sort(times[np.abs(times.imag) < TOL_TRACKING].real)
    clusters = np.split(times, np.flatnonzero(np.diff(times) >= TOL_TRACKING) + 1)
    crossings = []
    for cluster in clusters if times.size else ():
        s_star = float(np.mean(cluster))
        eigvals, eigvecs = np.linalg.eigh(_operator_matrix(family, s_star, order))
        kernel = eigvecs[:, np.abs(eigvals) < 1e-5]
        where = f" near s = {s_star:.6f}"
        if kernel.shape[1] != cluster.size:
            raise TrackingAmbiguity(
                f"eigenvalue touches zero{where} without a resolvable crossing"
                f" ({cluster.size} pencil roots, kernel dimension {kernel.shape[1]})"
            )
        direction = -_signature(kernel.T @ da @ kernel, context=where, error=TrackingAmbiguity)
        crossings.append({"s": s_star, "direction": direction, "kernel": kernel})
    return crossings, _neg_count(end_eigs[1]) - _neg_count(end_eigs[0])


def spectral_flow(family, order=None):
    """Net signed count of operator eigenvalues crossing zero from s = -1 to
    s = +1 in the Fourier truncation; equals the difference of negative
    counts at the endpoints, and matches the Conley-Zehnder index difference
    of the endpoint return maps."""
    order = family.fourier_order if order is None else order
    crossings, flow = _locate_crossings(family, order)
    if sum(c["direction"] for c in crossings) != flow:
        raise TrackingAmbiguity("crossing directions do not telescope to the flow")
    return flow


# ---------------------------------------------------------------------------
# Crossing sign relation (operator family vs return-map family)
# ---------------------------------------------------------------------------


def _eval_loop_at_zero(coeffs, n, order):
    """Evaluate the loop with the given Fourier coefficients at t = 0."""
    d = 2 * n
    v = coeffs[:d].copy()
    for m in range(1, order + 1):
        v += math.sqrt(2.0) * coeffs[(2 * m - 1) * d : (2 * m - 1) * d + d]
    return v


def verify_crossing_sign_lemma(family):
    """At each crossing of the operator family, compare the operator
    crossing form with the return-map crossing form.

    Every crossing of ``_locate_crossings`` brings an orthonormal basis of
    the kernel of the truncated ``A_{s*}`` at its exact time ``s*``.  For
    each basis vector eta the operator form is ``Gamma_A = eta^T (dA/ds)
    eta``, with the exact derivative ``dA/ds = 1/2 (A_1 - A_-1)`` of the
    affine family; for ``v = eta(0)`` the return-map form is ``Gamma_Psi =
    omega0(v, d/ds Psi_s(1) v)`` where ``Psi_s`` solves the path equation
    for ``S(s, .)``; the paths at ``s* - h``, ``s*`` and ``s* + h`` of all
    crossings are solved in one march.  The two must have opposite signs
    and agree in magnitude within relative 1e-4.

    A family with no crossings returns an empty report when its endpoint
    negative counts agree (nothing to check); ``NoCrossingFound`` is raised
    only when a crossing must exist but could not be localized.
    """
    order = family.fourier_order
    crossings, flow = _locate_crossings(family, order)
    if not crossings:
        if flow != 0:
            raise NoCrossingFound(
                "nonzero spectral flow but no crossing could be localized"
            )
        return {
            "check": "crossing_sign_lemma",
            "instances": 0,
            "failures": [],
            "max_residual": 0.0,
        }
    j0 = standard_j(family.n)
    a_minus, a_plus = family.operator_ends(order)
    da = 0.5 * (a_plus - a_minus)
    h_path = 1e-4
    failures = []
    instances = 0
    max_residual = 0.0
    paths = solve_paths(
        family.path_at(c["s"] + shift) for c in crossings for shift in (h_path, -h_path, 0.0)
    )
    for crossing, psi_plus, psi_minus, psi_star in zip(
        crossings, paths[0::3], paths[1::3], paths[2::3]
    ):
        s_star = crossing["s"]
        dpsi = (psi_plus.endpoint() - psi_minus.endpoint()) / (2.0 * h_path)
        for eta in crossing["kernel"].T:
            gamma_a = float(eta @ da @ eta)
            v = _eval_loop_at_zero(eta, family.n, order)
            kernel_residual = float(
                np.linalg.norm((psi_star.endpoint() - _identity(2 * family.n)) @ v)
            )
            gamma_psi = float((j0 @ v) @ (dpsi @ v))
            rel = abs(gamma_a + gamma_psi) / max(abs(gamma_a), abs(gamma_psi))
            max_residual = max(max_residual, rel)
            instances += 1
            if gamma_a * gamma_psi >= 0.0 or rel >= 1e-4:
                failures.append(
                    {
                        "s": s_star,
                        "gamma_operator": gamma_a,
                        "gamma_return_map": gamma_psi,
                        "relative_difference": rel,
                        "kernel_residual": kernel_residual,
                    }
                )
    return {
        "check": "crossing_sign_lemma",
        "instances": instances,
        "failures": failures,
        "max_residual": max_residual,
    }


# ---------------------------------------------------------------------------
# Index bookkeeping for holomorphic buildings
# ---------------------------------------------------------------------------


def building_index(top, bottoms):
    """Fredholm index of a genus-zero level with one positive end of index
    ``top`` and negative ends of indices ``bottoms``:
    ``(#bottoms - 1) + top - sum(bottoms)``."""
    bottoms = list(bottoms)
    if not bottoms:
        raise ValueError("a building level needs at least one negative end")
    return len(bottoms) - 1 + int(top) - sum(int(b) for b in bottoms)


# ---------------------------------------------------------------------------
# Randomized axiom suite
# ---------------------------------------------------------------------------


def _random_generator(rng, n, scale=1.0):
    """Random low-mode Fourier generator path with norm about `scale`."""
    d = 2 * n

    def sym(amp):
        m = rng.normal(0.0, amp, size=(d, d))
        return 0.5 * (m + m.T)

    a0 = sym(scale)
    coeffs = [(sym(scale / (m + 1)), sym(scale / (m + 1))) for m in (1, 2)]

    def evaluate(t):
        # Arrays of times (the grid, the solver midpoints, family ends) are
        # summed with array cos/sin; a single time (crossing refinement)
        # takes the scalar route below.
        if not np.ndim(t):
            return evaluate_at(t)
        t = _times(t)
        s = a0
        for m, (c, dcoef) in enumerate(coeffs, start=1):
            s = s + c * np.cos(2.0 * math.pi * m * t) + dcoef * np.sin(2.0 * math.pi * m * t)
        return s

    (c1, d1), (c2, d2) = coeffs
    entries = list(zip(*(m.ravel().tolist() for m in (a0, c1, d1, c2, d2))))

    def evaluate_at(t):
        # the array route's sum entry by entry in Python floats, each
        # operation in its order (4.0 * pi is 2.0 * pi * 2 exactly), with
        # math.cos/sin: far cheaper per point
        u, v = 2.0 * math.pi * t, 4.0 * math.pi * t
        cu, su, cv, sv = math.cos(u), math.sin(u), math.cos(v), math.sin(v)
        return np.array([a + b * cu + c * su + e * cv + f * sv
                         for a, b, c, e, f in entries]).reshape(d, d)

    # the coefficients are symmetric, so every sum is exactly symmetric
    ts = _grid(DEFAULT_SAMPLES)
    return SymmetricPath(evaluate(ts), func=evaluate, mids=evaluate(_midpoint_times(ts)))


class _DrawAhead:
    """Random data drawn ahead of their use, bit for bit as a sequential
    draw that accepts every datum takes them.

    ``draw(rng, key, data)`` draws the datum of ``key`` from ``rng``, and
    may read the data of earlier keys; the data are drawn in the order of
    ``keys``, and read in that order too (``draws[key]``, ``path(key)``).
    Reading past the drawn keys draws the next ``_DRAW_AHEAD`` of them, and
    every generator path among those (a ``SymmetricPath``) is solved in one
    march per grid and dimension.  ``path(key)`` builds the solved path of
    ``key`` and lets go of its generator, so a guard of ``SymplecticPath``
    raises when the path is used, not when it is marched.
    ``redraw(key)`` replaces a rejected datum as a sequential retry draws
    it: from the generator state right after the datum's last draw, which
    is kept for every key, then every later drawn key again, marched again.
    """

    __slots__ = ("_rng", "_keys", "_draw", "_position", "_after", "_drawn", "_data",
                 "_marched")

    def __init__(self, rng, keys, draw):
        self._rng = rng
        self._keys = list(keys)
        self._draw = draw
        self._position = {key: i for i, key in enumerate(self._keys)}
        self._after = [None] * len(self._keys)
        self._drawn = 0
        self._data = {}
        self._marched = {}

    def __getitem__(self, key):
        while self._position[key] >= self._drawn:
            self._plan(self._drawn, self._drawn + _DRAW_AHEAD)
        return self._data[key]

    def _plan(self, start, stop):
        stop = min(stop, len(self._keys))
        groups = {}
        for i in range(start, stop):
            key = self._keys[i]
            datum = self._data[key] = self._draw(self._rng, key, self._data)
            self._after[i] = self._rng.bit_generator.state
            if isinstance(datum, SymmetricPath):
                groups.setdefault((datum.samples, datum.dim), []).append(key)
        self._drawn = stop
        for keys in groups.values():
            values = _march([self._data[key] for key in keys])
            for column, key in enumerate(keys):
                self._marched[key] = (values, column)

    def path(self, key):
        """The solved path of the generator drawn for ``key``."""
        generator = self[key]
        del self._data[key]
        values, column = self._marched.pop(key)
        return _solved_path(values[:, column], generator)

    def redraw(self, key):
        """Draw the datum of ``key`` again, and every later drawn one."""
        position = self._position[key]
        self._rng.bit_generator.state = self._after[position]
        self._plan(position, self._drawn)


def _nondegenerate_draw(draws, key):
    """The solved path of the generator drawn for ``key`` and its
    crossing-form index, the generator redrawn until the path has a
    nondegenerate endpoint, an invertible S(0) and regular crossings, at
    most ``_DRAW_TRIES`` draws in all (``IrregularCrossing`` otherwise)."""
    for attempt in range(_DRAW_TRIES):
        if attempt:
            draws.redraw(key)
        path = draws.path(key)
        if not path.endpoint_nondegenerate:
            continue
        s0_eigs = np.linalg.eigvalsh(path.generator.at(0.0))
        if np.min(np.abs(s0_eigs)) < 1e-6:
            continue
        try:
            return path, cz_crossing_form(path)
        except IrregularCrossing:
            continue
    raise IrregularCrossing(
        f"could not draw a nondegenerate random path in {_DRAW_TRIES} tries")


def _random_nondegenerate_paths(rng, n, count, scale=1.0):
    """``count`` random nondegenerate paths in Sp(2n), each with its
    crossing-form index, drawn consecutively from ``rng`` and solved in one
    march (see ``_DrawAhead`` and ``_nondegenerate_draw``)."""
    draws = _DrawAhead(rng, range(count),
                       lambda rng, key, data: _random_generator(rng, n, scale=scale))
    return [_nondegenerate_draw(draws, key) for key in range(count)]


def _times(t):
    """A time or an array of times, shaped to broadcast against (d, d) matrices."""
    return np.asarray(t, dtype=float)[..., None, None]


def _vectorized_path(func, gen, samples=DEFAULT_SAMPLES):
    """Path whose evaluators ``func`` and ``gen`` accept a time or an array of
    times, ``gen`` exactly symmetric; the grid is sampled with one call of
    each."""
    ts = _grid(samples)
    s_path = SymmetricPath(gen(ts), func=gen)
    return SymplecticPath(func(ts), s_path, func=func)


def _rotation_loop(k, n=1):
    """Loop exp(2 pi k t J0) acting in the first Sp(2) block."""
    s_const = np.zeros((2 * n, 2 * n))
    s_const[0, 0] = s_const[n, n] = 2.0 * math.pi * k

    def func(t):
        angle = 2.0 * math.pi * k * np.asarray(t, dtype=float)
        c, s = np.cos(angle), np.sin(angle)
        m = np.broadcast_to(_identity(2 * n), angle.shape + (2 * n, 2 * n)).copy()
        m[..., 0, 0] = c
        m[..., 0, n] = -s
        m[..., n, 0] = s
        m[..., n, n] = c
        return m

    def gen(t):
        return np.broadcast_to(s_const, np.shape(t) + s_const.shape)

    return _vectorized_path(func, gen)


def _check(report, name, detail, ok, failures):
    report["instances"] += 1
    if not ok:
        failures.append({"axiom": name, **detail})


# what one path of the axiom suite draws, in order; the 12 zero-axiom and
# the 12 signature-axiom constants follow all paths
_INSTANCE_DRAWS = ("scale", "path", "homotopy", "naturality", "loop")


def _draw_suite_datum(rng, key, data):
    """The axiom suite's datum ``key = (kind, i)``, drawn from ``rng``."""
    kind, i = key
    n = 1 if i % 3 != 2 else 2
    if kind == "scale":
        return 1.0 + 1.5 * rng.random()
    if kind == "path":
        return _random_generator(rng, n, scale=data["scale", i])
    if kind == "homotopy":
        lam = 0.35 * (1.0 + rng.random())
        stilde = rng.normal(0.0, 1.0, size=(2 * n, 2 * n))
        return lam, 0.5 * (stilde + stilde.T)
    if kind == "naturality":
        return _random_generator(rng, n, scale=0.7)
    if kind == "loop":
        return int(rng.integers(-2, 3))
    if kind == "zero":
        # a constant generator with hyperbolic spectrum
        n = 1 if i % 2 == 0 else 2
        while True:
            s = rng.normal(0.0, 1.0, size=(2 * n, 2 * n))
            s = 0.5 * (s + s.T)
            eigs = np.linalg.eigvals(standard_j(n) @ s)
            if np.max(np.abs(eigs.imag)) < 1e-12 and np.min(np.abs(eigs.real)) > 0.05:
                return _constant_generator(s)
    # "signature": a constant generator with norm below 2 pi
    while True:
        s = rng.normal(0.0, 1.5, size=(2, 2))
        s = 0.5 * (s + s.T)
        eigs = np.linalg.eigvalsh(s)
        if np.max(np.abs(eigs)) < 0.95 * 2.0 * math.pi and np.min(np.abs(eigs)) > 0.05:
            return _constant_generator(s)


def cz_axiom_suite(seed, instances=50):
    """Randomized verification of the index axioms on nondegenerate paths.

    Checks per drawn path: determinant parity, agreement of the rotation
    route (Sp(2) only), inverse antisymmetry, homotopy invariance under an
    endpoint-fixing perturbation, naturality under conjugation by a path,
    and loop composition; plus product additivity on path pairs, the zero
    axiom on hyperbolic-spectrum paths, and the signature axiom on constant
    generators.  Raises ``AxiomViolation`` if any check fails.

    All random data are drawn from the seed ahead of the checks, in the
    order of ``_INSTANCE_DRAWS`` (``_draw_suite_datum``), and every drawn
    generator is solved in one march per dimension (``_DrawAhead``); a
    rejected path or an irregular homotopy perturbation is redrawn as a
    sequential retry draws it, so the report depends only on the seed.
    """
    n_paths = max(10, int(instances))
    keys = ([(kind, i) for i in range(n_paths) for kind in _INSTANCE_DRAWS]
            + [("zero", i) for i in range(12)] + [("signature", i) for i in range(12)])
    draws = _DrawAhead(np.random.default_rng(seed), keys, _draw_suite_datum)
    report = {"check": "cz_axioms", "instances": 0, "failures": [], "max_residual": 0.0}
    failures = report["failures"]
    sp2_pool = []
    for i in range(n_paths):
        path, mu = _nondegenerate_draw(draws, ("path", i))
        n = path.n
        report["max_residual"] = max(report["max_residual"], path.drift)
        end = path.endpoint()
        det_end = float(np.linalg.det(end - _identity(2 * n)))
        _check(
            report,
            "determinant",
            {"instance": i, "mu": mu, "det": det_end},
            ((-1.0) ** (n - mu)) * det_end > 0.0,
            failures,
        )
        if n == 1:
            sp2_pool.append((i, path, mu))
            theta, mu_rot = rotation_cz_sp2(path)
            _check(
                report,
                "rotation_agreement",
                {"instance": i, "mu": mu, "mu_rotation": mu_rot, "theta": theta},
                mu_rot == mu,
                failures,
            )
        mu_inv = cz_crossing_form(path_inverse(path))
        _check(
            report,
            "inverse",
            {"instance": i, "mu": mu, "mu_inverse": mu_inv},
            mu_inv == -mu,
            failures,
        )
        # Homotopy invariance: endpoint-fixing perturbation Phi * exp(lambda sin(pi t) J0 Stilde).
        for attempt in range(8):
            if attempt:
                draws.redraw(("homotopy", i))
            lam, stilde = draws["homotopy", i]
            m0 = standard_j(n) @ stilde

            def bfunc(t, lam=lam, m0=m0):
                return _expm(lam * np.sin(math.pi * _times(t)) * m0)

            def bgen(t, lam=lam, stilde=stilde):
                return lam * math.pi * np.cos(math.pi * _times(t)) * stilde

            b_path = _vectorized_path(bfunc, bgen, samples=path.samples)
            try:
                mu_pert = cz_crossing_form(path_product(path, b_path))
                break
            except IrregularCrossing:
                continue
        else:
            raise IrregularCrossing("homotopy perturbation kept hitting irregular crossings")
        _check(
            report,
            "homotopy",
            {"instance": i, "mu": mu, "mu_perturbed": mu_pert, "lambda": lam},
            mu_pert == mu,
            failures,
        )
        # Naturality: conjugation by a path N(t).
        n_path = draws.path(("naturality", i))
        conj = path_product(path_product(n_path, path), path_inverse(n_path))
        mu_conj = cz_crossing_form(conj)
        _check(
            report,
            "naturality",
            {"instance": i, "mu": mu, "mu_conjugated": mu_conj},
            mu_conj == mu,
            failures,
        )
        # Loop composition: mu(L Phi) = 2 maslov(L) + mu(Phi).
        k = draws["loop", i]
        if k != 0:
            loop = _rotation_loop(k, n=n)
            wind = maslov_loop(loop)
            mu_loop = cz_crossing_form(path_product(loop, path))
            _check(
                report,
                "loop",
                {"instance": i, "mu": mu, "k": k, "winding": wind, "mu_composed": mu_loop},
                wind == k and mu_loop == 2 * k + mu,
                failures,
            )
    # Product axiom on Sp(2) pairs.
    for (i1, p1, m1), (i2, p2, m2) in zip(sp2_pool[0::2], sp2_pool[1::2]):
        total = cz_crossing_form(path_direct_sum(p1, p2))
        _check(
            report,
            "product",
            {"instances_paired": (i1, i2), "mu_sum": m1 + m2, "mu_product": total},
            total == m1 + m2,
            failures,
        )
    # Zero axiom: constant generators with hyperbolic spectrum have index
    # zero.  Signature axiom: constant generators with norm below 2 pi have
    # index half their signature.
    zero = [draws.path(("zero", i)) for i in range(12)]
    signature = [draws.path(("signature", i)) for i in range(12)]
    for i, path in enumerate(zero):
        mu = cz_crossing_form(path)
        _check(report, "zero", {"instance": i, "mu": mu}, mu == 0, failures)
    for i, path in enumerate(signature):
        mu = cz_crossing_form(path)
        eigs = np.linalg.eigvalsh(path.generator.values[0])
        expected = int(np.sum(eigs > 0) - np.sum(eigs < 0)) // 2
        _check(
            report,
            "signature",
            {"instance": i, "expected": expected, "mu": mu},
            mu == expected,
            failures,
        )
    if failures:
        raise AxiomViolation(
            f"{len(failures)} axiom check(s) failed out of {report['instances']}: "
            f"{failures[:3]}"
        )
    return report


def _expm(m):
    """Dense matrix exponential of one matrix or of a stack, by
    scaling-and-squaring with a Taylor core; each matrix gets its own
    scaling exponent."""
    m = np.asarray(m, dtype=float)
    stack = m.reshape((-1,) + m.shape[-2:])
    norm = np.max(np.abs(stack), axis=(1, 2))
    j = np.maximum(0, np.ceil(np.log2(np.maximum(norm, 1e-30) / 0.25))).astype(int)
    a = stack / (2.0 ** j)[:, None, None]
    term = np.eye(m.shape[-1])
    out = np.eye(m.shape[-1])
    for i in range(1, 19):
        term = term @ a / i
        out = out + term
    for step in range(int(np.max(j))):
        squared = j > step
        out[squared] = out[squared] @ out[squared]
    return out.reshape(m.shape)
