"""Tests for the quotient Morse layer: invariant function construction,
critical-set certification, gradient flow-line counting, the weighted
orbifold complex, and the index-gap correspondence with orbit indices."""

import hashlib
import json
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from chlab import morse
from chlab.groups import build_group
from chlab.morse import (
    build_invariant_morse,
    count_flow_lines,
    find_critical_points,
    orbifold_complex,
    seifert_index_check,
)
from chlab.orbits import base_table, make_orbit

BATTERY = tuple(f"C:{n}" for n in range(2, 13)) + tuple(
    f"D:{n}" for n in range(2, 9)
) + ("T", "O", "I")


def _index_census(label):
    census = {}
    for cp in find_critical_points(build_invariant_morse(label)):
        census[cp.index] = census.get(cp.index, 0) + 1
    return census


# ---------------------------------------------------------------------------
# invariant functions and critical sets
# ---------------------------------------------------------------------------


def test_cyclic_function_is_a_height():
    func = build_invariant_morse("C:4")
    assert func.centers_max is None and func.value(np.eye(3)).tolist() == [1.0, 0.0, 0.0]
    assert _index_census("C:4") == {0: 1, 2: 1}


def test_dihedral_critical_census():
    func = build_invariant_morse("D:3")
    assert isinstance(func, morse.DihedralMorseFunction)
    assert _index_census("D:3") == {0: 3, 1: 3, 2: 2}


@pytest.mark.parametrize("label", ["D:2", "D:3", "D:7", "D:64"])
def test_dihedral_derivatives_match_central_differences(label):
    func = build_invariant_morse(label)
    x = morse._normalize(np.random.default_rng(3).standard_normal((50, 3)))
    h = 1e-6
    grad = np.stack([(func.value(x + h * e) - func.value(x - h * e)) / (2 * h)
                     for e in np.eye(3)], axis=-1)
    hess = np.stack([(func.gradient_ambient(x + h * e) - func.gradient_ambient(x - h * e)) / (2 * h)
                     for e in np.eye(3)], axis=-1)
    exact = func.hessian_ambient(x)
    scale = max(1.0, float(np.max(np.abs(exact))))
    assert np.max(np.abs(func.gradient_ambient(x) - grad)) < 1e-8
    assert np.max(np.abs(exact - hess)) < 1e-7 * scale
    # one point gives the values of a row of the batch
    assert np.max(np.abs(func.hessian_ambient(x[0]) - exact[0])) < 1e-14 * scale


def _tangent_frame_reference(x):
    axis = int(np.argmin(np.abs(x)))
    u = np.cross(np.eye(3)[axis], x)
    u /= np.linalg.norm(u)
    return u, np.cross(x, u)


def _newton_refine_reference(func, start, iters=60):
    """One row of the batched Newton refinement, with a general 2x2 solve."""
    x = start / np.linalg.norm(start)
    for _ in range(iters):
        g = func.gradient(x)
        gnorm = float(np.linalg.norm(g))
        u, v = _tangent_frame_reference(x)
        hess = func.sphere_hessian(x, (u, v))
        try:
            sol = np.linalg.solve(hess, np.array([g @ u, g @ v]))
        except np.linalg.LinAlgError:
            return x, False
        step = sol[0] * u + sol[1] * v
        if float(np.linalg.norm(step)) > 0.5:
            return x, False
        x = x - step
        x = x / np.linalg.norm(x)
        if float(np.linalg.norm(step)) < 1e-14 and gnorm < 1e-12:
            break
    return x, float(np.linalg.norm(func.gradient(x))) < 1e-10


@pytest.mark.parametrize("label", ["D:8", "T", "O", "I"])
def test_batched_newton_matches_per_point_reference(label):
    func = build_invariant_morse(label)
    fixed = morse._all_fixed_point_array(func.fixed_orbits)
    rng = np.random.default_rng(5)
    starts = np.concatenate([fixed] + [fixed + eps * rng.standard_normal(fixed.shape)
                                       for eps in (1e-3, 1e-1, 0.3)])
    points, converged = morse._newton_refine(func, starts)
    reference = [_newton_refine_reference(func, start) for start in starts]
    assert converged.tolist() == [ok for _, ok in reference]
    gap = np.max(np.abs(points - np.array([x for x, _ in reference])), axis=1)
    assert np.max(gap[converged]) < 1e-12
    # a row that aborts has wandered for some steps, which magnifies the
    # last-bit differences between the two 2x2 solves
    assert np.max(gap[~converged]) < 1e-9
    # the far starts exercise both outcomes
    assert converged[: len(fixed)].all() and not converged.all()


def test_polyhedral_critical_census():
    assert _index_census("T") == {0: 4, 1: 6, 2: 4}
    assert _index_census("O") == {0: 6, 1: 12, 2: 8}
    assert _index_census("I") == {0: 12, 1: 30, 2: 20}


@pytest.mark.parametrize("label", ["C:5", "D:4", "T", "I"])
def test_invariance_residual_is_tiny(label):
    func = build_invariant_morse(label)
    assert func.invariance_residual() <= 1e-10


def _fibonacci_sphere_whole(count):
    """The lattice from whole-array formulas, the reference of the blocked build."""
    i = np.arange(count, dtype=float) + 0.5
    polar = np.arccos(1.0 - 2.0 * i / count)
    azimuth = np.pi * (1.0 + np.sqrt(5.0)) * i
    return np.stack([np.cos(polar), np.sin(polar) * np.cos(azimuth),
                     np.sin(polar) * np.sin(azimuth)], axis=1)


def test_scan_lattice_is_built_once_and_read_only():
    pts = morse._fibonacci_sphere(morse.SCAN_POINTS)
    assert morse._fibonacci_sphere(morse.SCAN_POINTS) is pts
    with pytest.raises(ValueError):
        pts[0, 0] = 0.0
    assert np.array_equal(pts, morse._fibonacci_sphere.__wrapped__(morse.SCAN_POINTS))


@pytest.mark.parametrize("count", [morse.SCAN_POINTS, morse.INVARIANCE_POINTS, 12_345])
def test_blocked_lattice_build_is_the_whole_array_build(count):
    assert np.array_equal(morse._fibonacci_sphere.__wrapped__(count),
                          _fibonacci_sphere_whole(count))


def test_blocked_lattice_build_has_a_small_traced_peak():
    # the whole-array build of the scan lattice peaks at 7.2 MB traced; the
    # lattice itself is 2.4 MB
    tracemalloc.start()
    try:
        morse._fibonacci_sphere.__wrapped__(morse.SCAN_POINTS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6, f"traced peak {peak / 1e6:.1f} MB"


#: the 129 supported groups
ALL_GROUPS = tuple(f"{kind}:{n}" for kind in "CD" for n in range(2, 65)) + ("T", "O", "I")


@pytest.mark.parametrize("label", ALL_GROUPS)
def test_images_of_the_fundamental_domain_cover_the_sphere(label):
    # the scan's and the invariance check's reduction to F' rests on this:
    # every point has an H-image in the domain without its margin
    group = build_group(label)
    x = morse._normalize(np.random.default_rng(11).standard_normal((400, 3)))
    images = np.einsum("rij,pj->rpi", group.rotations, x).reshape(-1, 3)
    inside = morse._fundamental_domain(group, images, 0.0).reshape(len(group.rotations), -1)
    assert np.all(np.any(inside, axis=0))


@pytest.mark.parametrize("label", ALL_GROUPS)
def test_gradient_is_equivariant(label):
    # ... and on this: grad f(R x) = R grad f(x), so |grad f| is invariant
    func = build_invariant_morse(label)
    x = morse._normalize(np.random.default_rng(12).standard_normal((8, 3)))
    grad = func.gradient(x)
    for rotation in func.rotations:
        assert np.max(np.abs(func.gradient(x @ rotation.T) - grad @ rotation.T)) < 1e-12


def test_fundamental_domain_needs_e0_in_fix_h():
    group = build_group("T")
    tilted = SimpleNamespace(spec=group.spec, rotations=group.rotations,
                             fixed_orbits=[SimpleNamespace(points=[(0.0, 0.6, 0.8)])])
    with pytest.raises(ValueError, match=r"T: e0 = \(1, 0, 0\) is not a point of Fix\(H\)"):
        morse._fundamental_domain(tilted, np.eye(3), 0.0)


@pytest.mark.parametrize("count", [morse.SCAN_POINTS, morse.INVARIANCE_POINTS])
def test_lattice_margin_exceeds_the_covering_radius(count):
    # the margin must exceed the lattice's covering radius, so that the
    # nearest lattice point of every point of the domain lies in F';
    # sampled at random and near the poles, where the lattice is coarsest
    lattice = morse._fibonacci_sphere(count)
    rng = np.random.default_rng(13)
    x = rng.standard_normal((1500, 3))
    x[:500, 0] = 40.0 * np.sign(x[:500, 0])
    x = morse._normalize(x)
    nearest = np.max(np.concatenate([x[lo:lo + 100] @ lattice.T for lo in range(0, len(x), 100)]),
                     axis=1)
    assert np.max(np.sqrt(np.maximum(0.0, 2.0 - 2.0 * nearest))) < morse._lattice_margin(count)


def test_scan_lattice_first_coordinate_falls_strictly():
    # the premise of the scan's bands: each mask is one slice of the lattice
    pts = morse._fibonacci_sphere(morse.SCAN_POINTS)
    assert np.all(np.diff(pts[:, 0]) < 0.0)


@pytest.mark.parametrize("label", ["C:7", "D:64", "T", "I"])
def test_banded_mask_is_the_whole_lattice_mask(label):
    group = build_group(label)
    lattice = morse._fibonacci_sphere(morse.SCAN_POINTS)
    fixed = morse._all_fixed_point_array(group.fixed_orbits)
    # the scan bands the points of F', a subset in lattice order
    for pts in (lattice, morse._domain_lattice(group, morse.SCAN_POINTS)):
        # every point against every fixed point, a block at a time
        whole = []
        for lo in range(0, len(pts), 10_000):
            cosine = np.max(pts[lo:lo + 10_000] @ fixed.T, axis=1)
            whole.append(np.sqrt(np.maximum(0.0, 2.0 - 2.0 * cosine)) > morse.MASK_RADIUS)
        banded = morse._fixed_distances(pts, fixed, 2.0 * morse.MASK_RADIUS) > morse.MASK_RADIUS
        assert np.array_equal(banded, np.concatenate(whole))


@pytest.mark.parametrize("label", ["C:7", "D:64", "I"])
def test_block_size_changes_no_certificate(monkeypatch, label):
    func = build_invariant_morse(label)

    def certify():
        return func.invariance_residual(), morse._scan_critical_set(func)

    blocked = certify()
    monkeypatch.setattr(morse, "BLOCK", 10 ** 9)  # every kernel in one block
    whole = certify()
    assert blocked[0] == whole[0]
    assert blocked[1] is whole[1] is None


def _flattened_near(func, point, radius=0.05):
    """`func` with its gradient scaled by 1e-9 within `radius` of `point`."""
    gradient = func.gradient

    def flat(x):
        g = gradient(x)
        near = np.linalg.norm(x - point, axis=-1) < radius
        return np.where(near[..., None], 1e-9 * g, g)

    func.gradient = flat
    return func


def _floor_reason(func, pts):
    """The scan's failure reason, from every point of `pts` at once."""
    fixed = morse._all_fixed_point_array(func.fixed_orbits)
    nearest = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * np.max(pts @ fixed.T, axis=1)))
    outside = nearest > morse.MASK_RADIUS
    floor = np.min(np.linalg.norm(func.gradient(pts), axis=-1)[outside])
    return f"gradient floor {floor:.3e} at distance {np.min(nearest[outside]):.3e}"


@pytest.mark.parametrize("block", [1000, 8192, 10 ** 9])
def test_scan_failure_reports_the_floor_of_the_scanned_points(monkeypatch, block):
    # a spurious near-critical patch of C:5, far from Fix(H), astride an
    # edge of the scanned sector (half-width 36 degrees about (0, 1, 0))
    azimuth = np.radians(39.0)
    patch = np.array([0.3, 0.95 * np.cos(azimuth), 0.95 * np.sin(azimuth)])
    func = _flattened_near(build_invariant_morse("C:5"), patch / np.linalg.norm(patch))
    monkeypatch.setattr(morse, "BLOCK", block)
    reason = morse._scan_critical_set(func)
    assert reason == _floor_reason(func, morse._domain_lattice(func, morse.SCAN_POINTS))
    # the patch's flattest lattice point lies outside F', so the whole
    # lattice reads a lower floor
    assert reason != _floor_reason(func, morse._fibonacci_sphere(morse.SCAN_POINTS))


def test_scan_with_no_point_outside_the_mask_certifies_nothing(monkeypatch):
    func = build_invariant_morse("C:5")
    monkeypatch.setattr(morse, "MASK_RADIUS", 3.0)
    assert morse._scan_critical_set(func) == "mask covered the whole scan lattice"


def _nan_values(monkeypatch):
    monkeypatch.setattr(morse.InvariantMorseFunction, "value",
                        lambda self, x: np.full(np.shape(x)[:-1], np.nan))


def _nan_gradient_off_fix(monkeypatch):
    # NaN outside the scan mask, exact near Fix(H), so the classification's
    # Newton refinement from the fixed points still converges
    real = morse.InvariantMorseFunction.gradient

    def gradient(self, x):
        g = real(self, x)
        fixed = morse._all_fixed_point_array(self.fixed_orbits)
        g[np.max(np.asarray(x) @ fixed.T, axis=-1) < 1.0 - 0.5 * morse.MASK_RADIUS ** 2] = np.nan
        return g

    monkeypatch.setattr(morse.InvariantMorseFunction, "gradient", gradient)


@pytest.mark.parametrize("label", ["C:5", "T"])
@pytest.mark.parametrize("inject, reason", [
    (_nan_values, "invariance residual nan"),
    (_nan_gradient_off_fix, "gradient floor nan"),
], ids=["value", "gradient"])
def test_nan_fails_the_certificate(monkeypatch, label, inject, reason):
    inject(monkeypatch)
    with pytest.raises(morse.SpuriousCriticalPoint, match=reason):
        build_invariant_morse(label)


#: a generic point: for C:5, D:7, T and I its H-images are at least 0.18
#: apart and at least 0.09 from Fix(H)
GENERIC_POINT = morse._normalize(np.array([0.31, 0.72, 0.55]))


def _plateau(x, centers, radius):
    """Sum over `centers` of a C^1 cutoff of the chordal distance d: 1 for
    d <= radius/2, 0 for d >= radius; and its ambient gradient."""
    diff = x[..., None, :] - centers
    d = np.linalg.norm(diff, axis=-1)
    t = np.clip((radius - d) / (0.5 * radius), 0.0, 1.0)
    slope = 6.0 * t * (1.0 - t) * (-2.0 / radius) / np.maximum(d, 1e-300)
    return (t * t * (3.0 - 2.0 * t)).sum(axis=-1), (slope[..., None] * diff).sum(axis=-2)


#: support radius of the planted bump
PLATEAU_RADIUS = 0.06


def _plant_invariant_plateau(monkeypatch, radius=PLATEAU_RADIUS, lift=0.01):
    """Replace f by f + s (f(z) + lift - f), s the cutoff about every H-image
    of z = GENERIC_POINT: an H-invariant bump whose top, within radius/2 of
    each image, is flat, so its gradient there is exactly 0."""
    for cls in (morse.InvariantMorseFunction, morse.DihedralMorseFunction):
        def value(self, x, real=cls.value):
            x = np.asarray(x, dtype=float)
            s, _ = _plateau(x, self.rotations @ GENERIC_POINT, radius)
            f = real(self, x)
            return f + s * (real(self, GENERIC_POINT) + lift - f)

        def gradient_ambient(self, x, real_value=cls.value, real=cls.gradient_ambient):
            x = np.asarray(x, dtype=float)
            s, ds = _plateau(x, self.rotations @ GENERIC_POINT, radius)
            top = real_value(self, GENERIC_POINT) + lift - real_value(self, x)
            return (1.0 - s)[..., None] * real(self, x) + top[..., None] * ds

        monkeypatch.setattr(cls, "value", value)
        monkeypatch.setattr(cls, "gradient_ambient", gradient_ambient)


@pytest.mark.parametrize("label", ["C:5", "D:7", "T", "I"])
def test_invariant_flat_bump_on_a_generic_orbit_is_spurious(monkeypatch, label):
    group = build_group(label)
    orbit = group.rotations @ GENERIC_POINT
    fixed = morse._all_fixed_point_array(group.fixed_orbits)
    gaps = np.linalg.norm(orbit[:, None, :] - orbit, axis=-1)
    # the bumps are disjoint and outside the scan's mask
    assert np.min(gaps + 9.0 * np.eye(len(orbit))) > 2.0 * PLATEAU_RADIUS
    assert (np.min(np.linalg.norm(orbit[:, None, :] - fixed, axis=-1))
            > PLATEAU_RADIUS + morse.MASK_RADIUS)
    _plant_invariant_plateau(monkeypatch)
    # the planted function is invariant, so only the scan can catch it
    with pytest.raises(morse.SpuriousCriticalPoint,
                       match=f"{label}: gradient floor 0.000e\\+00 at distance"):
        build_invariant_morse(label)


@pytest.mark.parametrize("label", ["C:5", "D:7", "T", "I"])
def test_non_invariant_value_outside_the_domain_fails_invariance(monkeypatch, label):
    # a Gaussian of height 1e-6 about one point outside F', not its orbit
    z = morse._normalize(np.array([-0.3, -0.8, -0.5]))
    assert not morse._fundamental_domain(
        build_group(label), z[None], morse._lattice_margin(morse.INVARIANCE_POINTS))[0]
    for cls in (morse.InvariantMorseFunction, morse.DihedralMorseFunction):
        def value(self, x, real=cls.value):
            x = np.asarray(x, dtype=float)
            return real(self, x) + 1e-6 * np.exp(-np.sum((x - z) ** 2, axis=-1) / 0.04)

        monkeypatch.setattr(cls, "value", value)
    with pytest.raises(morse.SpuriousCriticalPoint, match=f"{label}: invariance residual"):
        build_invariant_morse(label)


@pytest.mark.parametrize("share, fails", [(0.4, False), (0.6, True)])
def test_invariance_guard_holds_twice_the_residual(monkeypatch, share, fails):
    # the defect over the H-images of F' is up to twice the residual on F'
    monkeypatch.setattr(morse.InvariantMorseFunction, "invariance_residual",
                        lambda self: share * morse.TOL_INVARIANCE)
    if fails:
        with pytest.raises(morse.SpuriousCriticalPoint, match="T: invariance residual 6.000e-11"):
            build_invariant_morse("T")
    else:
        build_invariant_morse("T")


def test_nan_rotation_image_fails_the_permutation_certificate():
    # each seed is the image of the first under exactly one rotation, so a
    # NaN rotation leaves one seed unhit
    func = build_invariant_morse("T")
    func.rotations = func.rotations.copy()
    func.rotations[5] = np.nan
    with pytest.raises(morse.NonConvergentTrajectory,
                       match="T: the rotations did not carry the first seed to every seed"):
        count_flow_lines(func, "Face", "Edge")


#: traced allocation bound of one orbifold complex; evaluated whole, the
#: certification kernels peaked at 46 MB for I and 25 MB for D:64
PEAK_BOUND_MB = 12


@pytest.mark.parametrize("label", ["I", "D:64"])
def test_orbifold_complex_traced_peak_is_bounded(label):
    build_group(label)  # the group tables are not the Morse layer's
    tracemalloc.start()
    try:
        orbifold_complex(label)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BOUND_MB * 1e6, f"{label}: traced peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("label", ["D:3", "O"])
def test_critical_points_lie_on_sphere_with_clean_hessians(label):
    for cp in find_critical_points(build_invariant_morse(label)):
        assert abs(np.linalg.norm(np.asarray(cp.point)) - 1.0) < 1e-9
        eigs = np.asarray(cp.hessian_eigenvalues)
        assert np.min(np.abs(eigs)) > 1e-6
        assert int(np.sum(eigs < 0)) == cp.index


def test_saddles_are_the_non_orientable_points():
    for cp in find_critical_points(build_invariant_morse("D:4")):
        assert cp.orientable == (cp.index != 1)
        if cp.index == 1:
            assert cp.isotropy == 2


# ---------------------------------------------------------------------------
# flow lines
# ---------------------------------------------------------------------------


def test_tetrahedral_flow_counts():
    func = build_invariant_morse("T")
    down = count_flow_lines(func, "Face", "Edge")
    assert (down.source, down.target) == ("Face", "Edge")
    assert down.downstairs == 1
    assert down.weights == (3,)
    up = count_flow_lines(func, "Edge", "Vertex")
    assert up.downstairs == 1
    assert up.weights == (2,)


def test_flow_lines_empty_for_index_gap_two():
    func = build_invariant_morse("T")
    flows = count_flow_lines(func, "Face", "Vertex")
    assert flows.downstairs == 0
    assert flows.upstairs == 0
    assert flows.weights == ()
    assert flows.trajectories == ()


def test_dihedral_flow_weights():
    func = build_invariant_morse("D:3")
    assert count_flow_lines(func, "Plus", "Saddle").weights == (3,)
    assert count_flow_lines(func, "Saddle", "Minus").weights == (2,)


def test_hypothetical_composite_weight():
    # if the saddle class survived, the squared-differential entry would
    # weigh (max -> saddle) * (saddle -> min) = 3 * 2
    func = build_invariant_morse("T")
    w21 = count_flow_lines(func, "Face", "Edge").weights[0]
    w10 = count_flow_lines(func, "Edge", "Vertex").weights[0]
    assert w21 * w10 == 6


def test_trajectories_cover_every_seed():
    # D:64 is where the error control rejects steps
    for label in ("T", "I", "D:64"):
        func = build_invariant_morse(label)
        crits = {cp.point: cp for cp in find_critical_points(func)}
        names = {e.morse_index: e.name for e in base_table(func.spec)}
        for hi, lo in ((2, 1), (1, 0)):
            flows = count_flow_lines(func, names[hi], names[lo])
            assert len(flows.trajectories) == flows.upstairs > 0
            for traj in flows.trajectories:
                for endpoint in (traj.start, traj.end):
                    assert abs(np.linalg.norm(np.asarray(endpoint)) - 1.0) < 1e-6
                assert (crits[traj.start].index, crits[traj.end].index) == (hi, lo)
            assert flows.downstairs == 1


@pytest.mark.parametrize("label", ["T", "I", "D:64"])
def test_one_seed_per_trajectory_class_is_integrated(monkeypatch, label):
    seeds = []
    integrate = morse._integrate

    def spy(func, seed, sign, targets):
        seeds.append(seed)
        return integrate(func, seed, sign, targets)

    monkeypatch.setattr(morse, "_integrate", spy)
    flows = orbifold_complex(label).flow_counts.values()
    assert len(seeds) == len(flows) == 2   # one call per nonempty flow count
    assert all(flow.downstairs == 1 < flow.upstairs for flow in flows)


#: single-point gradient calls of both flow counts per group, with each
#: step capped at half the distance to the nearest target; a cap of a
#: quarter took 350, 314, 362, 344 and 320.  D:64 (776) is left out: its
#: stiff first steps are ROADMAP item 10's
FLOW_GRADIENT_CALLS = {"D:9": 182, "D:33": 164, "T": 182, "O": 170, "I": 158}


@pytest.mark.parametrize("label", FLOW_GRADIENT_CALLS)
def test_flow_gradient_calls_are_pinned(label):
    func = build_invariant_morse(label)
    gradient, calls = func.gradient, []

    def counted(x):
        calls.append(np.ndim(x) == 1)
        return gradient(x)

    func.gradient = counted
    names = {e.morse_index: e.name for e in base_table(func.spec)}
    for hi, lo in ((2, 1), (1, 0)):
        count_flow_lines(func, names[hi], names[lo])
    assert sum(calls) <= FLOW_GRADIENT_CALLS[label]


#: every group whose complex has flow counts: the dihedral range and the
#: polyhedral three
SADDLED = tuple(f"D:{n}" for n in range(2, 65)) + ("T", "O", "I")


def _flow_digest(label):
    """Both flow counts of `label`: source, target, upstairs, downstairs,
    weights, each trajectory's (start, end) as critical-point indices, and
    the SHA-256 of the trajectories' start and end coordinates."""
    func = build_invariant_morse(label)
    at = {cp.point: i for i, cp in enumerate(find_critical_points(func))}
    names = {e.morse_index: e.name for e in base_table(func.spec)}
    digest = []
    for hi, lo in ((2, 1), (1, 0)):
        flow = count_flow_lines(func, names[hi], names[lo])
        ends = np.array([traj.start + traj.end for traj in flow.trajectories])
        digest.append([flow.source, flow.target, flow.upstairs, flow.downstairs,
                       list(flow.weights), [[at[t.start], at[t.end]] for t in flow.trajectories],
                       hashlib.sha256(ends.tobytes()).hexdigest()])
    return digest


#: ``_flow_digest`` of every group in SADDLED, one group per line, recorded
#: while each flow count still integrated a batch of class representatives;
#: regenerated from the repository root by
#:     PYTHONPATH=src:tests python -c "import json, test_morse as t; print('{\n' + ',\n'.join(
#:         f'{json.dumps(g)}: {json.dumps(t._flow_digest(g))}' for g in t.SADDLED) + '\n}')" \
#:         > tests/data/flow_digests.json
FLOW_DIGESTS = Path(__file__).parent / "data" / "flow_digests.json"


def test_every_flow_matches_its_recorded_digest():
    recorded = json.loads(FLOW_DIGESTS.read_text())
    assert list(recorded) == list(SADDLED)
    for label in SADDLED:
        assert _flow_digest(label) == recorded[label], label


def test_unknown_orbifold_point_name_is_a_value_error():
    func = build_invariant_morse("D:3")
    with pytest.raises(ValueError, match="no base named 'Face' for D:3"):
        count_flow_lines(func, "Face", "Saddle")


def test_step_budget_exhaustion_is_nonconvergent(monkeypatch):
    func = build_invariant_morse("D:3")
    monkeypatch.setattr(morse, "STEP_LIMIT", 1)
    with pytest.raises(morse.NonConvergentTrajectory, match="unresolved after 1 steps"):
        count_flow_lines(func, "Saddle", "Minus")


def test_a_snap_miss_names_its_target(monkeypatch):
    func = build_invariant_morse("D:3")
    crits = find_critical_points(func)
    saddle = next(c for c in crits if c.index == 1)
    targets = np.array([c.point for c in crits if c.index == 0])
    seed = morse._normalize(np.array(saddle.point)
                            + morse.SEED_DISPLACEMENT * saddle.eigendirection(0))
    reached = morse._integrate(func, seed, -1.0, targets)
    monkeypatch.setattr(morse, "TOL_CONVERGENCE", -1.0)  # every snap misses
    with pytest.raises(morse.NonConvergentTrajectory, match="endpoint snap near") as err:
        morse._integrate(func, seed, -1.0, targets)
    assert f"near {tuple(np.round(targets[reached], 6))} failed" in str(err.value)


# ---------------------------------------------------------------------------
# orbifold complex
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("label", ["C:3", "C:8", "D:2", "D:5", "T", "O", "I"])
def test_orbifold_complex_ranks(label):
    cx = orbifold_complex(label)
    assert cx.ranks == (1, 0, 1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("label", ["D:27", "D:33", "D:34", "D:64"])
def test_large_dihedral_orbifold_complex(label):
    n = int(label[2:])
    cx = orbifold_complex(label)
    assert cx.ranks == (1, 0, 1)
    flows = {pair: (fl.downstairs, fl.weights) for pair, fl in cx.flow_counts.items()}
    assert flows == {("Plus", "Saddle"): (1, (n,)), ("Saddle", "Minus"): (1, (2,))}
    assert seifert_index_check(label)["failures"] == ()


def test_orbifold_complex_excludes_saddles():
    cx = orbifold_complex("T")
    assert cx.generators[0] == ("Vertex",)
    assert cx.generators[1] == ()
    assert cx.generators[2] == ("Face",)
    assert cx.excluded == ("Edge",)
    # no generator in degree 1, so the differential vanishes
    assert cx.ranks == (1, 0, 1)
    assert ("Face", "Edge") in cx.flow_counts
    assert ("Edge", "Vertex") in cx.flow_counts


def test_cyclic_complex_has_two_generators():
    cx = orbifold_complex("C:5")
    assert cx.generators[0] == ("SouthPole",)
    assert cx.generators[1] == ()
    assert cx.generators[2] == ("NorthPole",)
    assert cx.excluded == ()
    assert cx.flow_counts == {}


# ---------------------------------------------------------------------------
# index-gap correspondence
# ---------------------------------------------------------------------------


def test_seifert_index_check_tetrahedral():
    report = seifert_index_check("T")
    assert report["failures"] == ()
    gaps = {row["pair"]: row["morse_gap"] for row in report["rows"]}
    assert gaps[("Face", "Edge")] == 1
    assert gaps[("Face", "Vertex")] == 2
    assert make_orbit("T", "Face", 6).cz - make_orbit("T", "Edge", 4).cz == 1
    assert make_orbit("T", "Face", 6).cz - make_orbit("T", "Vertex", 6).cz == 2
    for row in report["rows"]:
        assert row["morse_gap"] == row["cz_gap"]


def test_seifert_index_check_dihedral():
    report = seifert_index_check("D:4")
    assert report["failures"] == ()
    gaps = {row["pair"]: row["morse_gap"] for row in report["rows"]}
    assert gaps[("Plus", "Minus")] == 2
    assert make_orbit("D:4", "Plus", 8).cz - make_orbit("D:4", "Minus", 4).cz == 2


@pytest.mark.parametrize("label", ["C:6", "D:3", "O", "I"])
def test_seifert_index_check_battery(label):
    report = seifert_index_check(label)
    assert report["check"] == "seifert_index"
    assert report["failures"] == ()
    assert report["instances"] == len(report["rows"]) > 0
