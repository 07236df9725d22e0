"""Tests for the index engine: path solving, crossing forms, rotation
numbers, loop indices, local models, path algebra, spectral flow, the
crossing-sign relation, and building index bookkeeping."""

import hashlib
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from chlab import cli, czengine
from chlab.czengine import (
    AsymptoticFamily,
    SymmetricPath,
    building_index,
    crossing_records,
    cz_axiom_suite,
    cz_crossing_form,
    local_model_path,
    local_model_for,
    maslov_loop,
    path_direct_sum,
    path_inverse,
    path_product,
    rotation_cz_sp2,
    solve_path,
    solve_paths,
    spectral_flow,
    standard_j,
    verify_crossing_sign_lemma,
)
from chlab.orbits import covering_multiplicity, enumerate_orbits


def _constant_path(s_matrix, samples=257):
    s = np.asarray(s_matrix, dtype=float)
    return solve_path(SymmetricPath.from_callable(lambda t: s, samples=samples))


def _nondegenerate_path(rng, n, scale=1.0):
    """One random nondegenerate path drawn from ``rng`` as the axiom suite
    draws its paths."""
    ((path, _mu),) = czengine._random_nondegenerate_paths(rng, n, 1, scale=scale)
    return path


def _is_solved(path):
    """Whether ``path`` was solved from its generator: its evaluator is the
    Runge-Kutta substep off its grid, not a closed form or a pointwise rule."""
    return path.func.__qualname__ == "_solved_path.<locals>.substep"


def _rot2(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# solving the path equation
# ---------------------------------------------------------------------------


def test_zero_generator_gives_constant_identity():
    path = _constant_path(np.zeros((2, 2)))
    assert np.max(np.abs(path.values - np.eye(2))) < 1e-10
    assert path.drift < 1e-9


def test_scalar_generator_gives_rotation():
    c = 1.7
    path = _constant_path(c * np.eye(2))
    for t in (0.25, 0.5, 1.0):
        assert np.allclose(path.at(t), _rot2(c * t), atol=1e-9)


def test_shear_generator_gives_hyperbolic_path():
    path = _constant_path(np.diag([1.0, -1.0]))
    for t in (0.3, 1.0):
        expected = np.array(
            [[math.cosh(t), math.sinh(t)], [math.sinh(t), math.cosh(t)]]
        )
        assert np.allclose(path.at(t), expected, atol=1e-9)


def test_solver_preserves_symplectic_form():
    rng = np.random.default_rng(0)
    for n in (1, 2):
        path = _nondegenerate_path(rng, n)
        j0 = standard_j(n)
        for t in (0.33, 1.0):
            phi = path.at(t)
            assert np.max(np.abs(phi.T @ j0 @ phi - j0)) < 1e-7


@pytest.mark.parametrize("samples", [512, 1024, 4097])
def test_path_at_grid_node_returns_stored_sample(samples):
    # t * (m - 1) rounds below the node index at some nodes; at() must still
    # return the stored sample there instead of a substep off the node below
    s0, s1 = np.array([[2.0, 0.3], [0.3, -1.0]]), np.array([[1.0, 0.5], [0.5, 4.0]])
    ts = np.linspace(0.0, 1.0, samples)[:, None, None]
    path = solve_path(SymmetricPath(s0 + ts * s1, func=lambda t: s0 + t * s1))
    assert _is_solved(path)
    for i, t in enumerate(path.ts):
        assert np.array_equal(path.at(t), path.values[i]), i


def _solve_path_reference(generator):
    """Phi' = J0 S Phi by one Runge-Kutta step per grid cell, applied to Phi
    itself step by step, with S at each midpoint from the generator's at()."""
    j0 = standard_j(generator.dim // 2)
    ts = generator.ts
    h = ts[1] - ts[0]
    values = [np.eye(generator.dim)]
    for i in range(generator.samples - 1):
        phi = values[-1]
        s_mid = generator.at(ts[i] + 0.5 * h)
        k1 = j0 @ generator.values[i] @ phi
        k2 = j0 @ s_mid @ (phi + 0.5 * h * k1)
        k3 = j0 @ s_mid @ (phi + 0.5 * h * k2)
        k4 = j0 @ generator.values[i + 1] @ (phi + h * k3)
        values.append(phi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return np.stack(values)


def _seeded_family():
    ((fam, _cz0, _cz1),) = cli.seeded_flow_families(2026, 1)
    return fam


def _generator(kind, samples):
    if kind == "random":
        gen = czengine._random_generator(np.random.default_rng(17), 2, scale=2.0)
        if samples == gen.samples:
            return gen  # the suite's own generator, with its midpoint stack
        return SymmetricPath.from_callable(gen.func, samples=samples)
    if kind == "constant":
        s = np.array([[1.5, 0.4], [0.4, -2.0]])
        return SymmetricPath.from_callable(lambda t: s, samples=samples)
    return _seeded_family().path_at(0.3, samples=samples)


@pytest.mark.parametrize("kind", ["random", "constant", "family"])
@pytest.mark.parametrize("samples", [512, 1024, 4097])
def test_batched_solve_matches_step_by_step_reference(kind, samples):
    gen = _generator(kind, samples)
    path = solve_path(gen)
    assert np.max(np.abs(path.values - _solve_path_reference(gen))) < 1e-12
    assert path.drift < czengine.TOL_DRIFT


def _march_generators(n):
    """Random, constant and family generators of dimension 2n on the
    default grid."""
    rng = np.random.default_rng(31 + n)
    g0, g1 = (czengine._random_generator(rng, n, scale=1.5) for _ in range(2))
    fam = AsymptoticFamily(
        lambda s, t: 0.5 * (1.0 - s) * g0.at(t) + 0.5 * (1.0 + s) * g1.at(t), n=n)
    s = rng.normal(0.0, 1.0, size=(2 * n, 2 * n))
    return [g0, g1, czengine._constant_generator(s + s.T), fam.path_at(-0.4), fam.path_at(0.9)]


@pytest.mark.parametrize("n", [1, 2])
def test_one_march_equals_one_path_at_a_time(n):
    gens = _march_generators(n)
    marched = solve_paths(gens)
    assert len(marched) == len(gens)
    for path, gen in zip(marched, gens):
        alone = solve_path(gen)
        assert path.generator is gen
        assert np.array_equal(path.values, alone.values)
        assert path.drift == alone.drift


def test_one_march_needs_one_grid_and_one_dimension():
    s = np.diag([1.0, -1.0])
    with pytest.raises(ValueError, match="one grid and one dimension"):
        solve_paths([czengine._constant_generator(s), czengine._constant_generator(s, 2048)])
    with pytest.raises(ValueError, match="one grid and one dimension"):
        solve_paths([czengine._constant_generator(s), czengine._constant_generator(np.eye(4))])
    assert solve_paths([]) == []


@pytest.mark.parametrize("samples", [512, 1025, 1408, 2049])
def test_march_is_bit_identical_across_block_boundaries(monkeypatch, samples):
    # the increments are built _BLOCK cells at a time; any block size,
    # one block for the whole grid included, gives the same bits
    fam = _seeded_family()
    random4 = czengine._random_generator(np.random.default_rng(7), 2)
    marches = [[fam.path_at(-0.6, samples), fam.path_at(0.2, samples),
                czengine._constant_generator(np.diag([2.0, -1.0]), samples)],
               [SymmetricPath.from_callable(random4.func, samples=samples)]]
    for gens in marches:
        blocked = solve_paths(gens)
        for block in (samples, 7):
            monkeypatch.setattr(czengine, "_BLOCK", block)
            for path, other in zip(blocked, solve_paths(gens)):
                assert np.array_equal(path.values, other.values)
        monkeypatch.undo()


@pytest.mark.parametrize("d", [2, 4])
def test_constant_generator_equals_pointwise_sampling(d):
    s = np.random.default_rng(d).normal(0.0, 1.0, size=(d, d))
    s = 0.5 * (s + s.T)
    gen = czengine._constant_generator(s)
    pointwise = SymmetricPath.from_callable(lambda t: s)
    assert np.array_equal(gen.values, pointwise.values)
    assert np.array_equal(gen.midpoints(), pointwise.midpoints())
    assert np.array_equal(gen.at(0.3), pointwise.at(0.3))


@pytest.mark.parametrize("s", [-1.0, -0.7, 0.2, 1.0])
def test_family_path_stacks_equal_pointwise_samples(s):
    # the CLI's interpolation families are combined from S(-1, .) and S(1, .)
    # bit for bit as their own func computes S(s, .) point by point
    for fam in (_seeded_family(), cli.canonical_flow_family(), cli.resonance_family()):
        gen = fam.path_at(s)
        h = gen.ts[1] - gen.ts[0]
        mids = np.stack([gen.at(t) for t in gen.ts[:-1] + 0.5 * h])
        assert np.array_equal(gen.mids, mids)
        pointwise = SymmetricPath.from_callable(lambda t: fam.func(s, t), samples=gen.samples)
        assert np.array_equal(gen.values, pointwise.values)


def test_midpoint_stack_is_validated():
    values = np.zeros((512, 2, 2))
    zero = lambda t: np.zeros((2, 2))
    with pytest.raises(ValueError, match="midpoint samples must be"):
        SymmetricPath(values, zero, mids=np.zeros((512, 2, 2)))
    skew = np.zeros((511, 2, 2))
    skew[:, 0, 1] = 1.0
    with pytest.raises(ValueError, match="not symmetric"):
        SymmetricPath(values, zero, mids=skew)


def test_generator_path_needs_its_evaluator():
    values = np.zeros((512, 2, 2))
    with pytest.raises(ValueError, match="exact evaluator"):
        SymmetricPath(values, None)
    with pytest.raises(TypeError):
        SymmetricPath(values)


def test_generator_samples_are_validated():
    zero = lambda t: np.zeros((2, 2))
    with pytest.raises(ValueError, match=r"must be an \(m, d, d\) array"):
        SymmetricPath(np.zeros((512, 2, 3)), zero)
    with pytest.raises(ValueError, match="needs >= 512 samples, got 256"):
        SymmetricPath(np.zeros((256, 2, 2)), zero)
    with pytest.raises(ValueError, match="dimension must be even"):
        SymmetricPath.from_callable(lambda t: np.eye(3))


def test_symplectic_path_is_validated():
    generator = SymmetricPath.from_callable(lambda t: np.zeros((2, 2)), samples=512)
    identity = np.broadcast_to(np.eye(2), (512, 2, 2))
    func = lambda t: np.eye(2)
    with pytest.raises(ValueError, match="needs its evaluator"):
        czengine.SymplecticPath(identity, generator, None)
    with pytest.raises(ValueError, match="must match the generator grid"):
        czengine.SymplecticPath(identity[:511], generator, func)
    with pytest.raises(ValueError, match="must match the generator grid"):
        czengine.SymplecticPath(np.broadcast_to(np.eye(4), (512, 4, 4)), generator, func)
    shifted = identity.copy()
    shifted[0, 0, 1] = 1e-9
    with pytest.raises(ValueError, match="must start at the identity"):
        czengine.SymplecticPath(shifted, generator, func)


# ---------------------------------------------------------------------------
# crossing-form index
# ---------------------------------------------------------------------------


def test_crossing_form_small_rotation():
    path = _constant_path(np.eye(2))  # rotation by 1 radian < 2*pi
    assert cz_crossing_form(path) == 1


def test_crossing_form_hyperbolic_is_zero():
    assert cz_crossing_form(_constant_path(np.diag([1.0, -1.0]))) == 0


def test_crossing_form_counts_full_turns():
    c = 2.0 * math.pi * 1.25
    assert cz_crossing_form(_constant_path(c * np.eye(2))) == 3


@pytest.mark.parametrize("k", [1, 2])
def test_loop_prepend_shifts_by_two(k):
    base = _constant_path(np.diag([1.0, -1.0]), samples=czengine.DEFAULT_SAMPLES)
    loop = czengine._rotation_loop(k)
    assert cz_crossing_form(path_product(loop, base)) == 2 * k + cz_crossing_form(base)


def _ramp_path(rate):
    # S(t) = diag(1, c(t)) with c rising from -1 through 0 near t = 1/rate:
    # det S(0) < 0, so det(Phi(t) - Id) starts out negative, and it turns
    # positive at about t = 2.6/rate
    return solve_path(czengine.SymmetricPath.from_callable(
        lambda t: np.diag([1.0, (rate * t - 1.0) / (rate * t + 1.0)])))


def test_crossing_in_first_grid_cell_is_found():
    path = _ramp_path(1e4)
    (record,) = crossing_records(path)
    assert czengine.TOL_ENDPOINT_GAP < record.time < path.ts[1]
    assert cz_crossing_form(path) == rotation_cz_sp2(path)[1] == 1


def test_crossing_inside_endpoint_gap_raises():
    with pytest.raises(czengine.IrregularCrossing, match="of t = 0"):
        crossing_records(_ramp_path(1e7))


def test_crossing_inside_endpoint_gap_at_t1_raises():
    # a local model at k is the one at 1 taken at k tau: the saddle model at
    # k = 1/2 crosses at tau = 0.9950257, so at k = 0.497513 it crosses
    # 3.2e-7 before t = 1, while |det(Phi(1) - Id)| = 1.3e-7 clears
    # TOL_ENDPOINT
    path = local_model_path(0.0, np.diag([1.0, -1.0]), eps=1e-2, k=Fraction("0.497513"))
    assert path.endpoint_nondegenerate
    with pytest.raises(czengine.IrregularCrossing, match="sits within 1e-06 of an endpoint"):
        crossing_records(path)


def test_near_resonant_saddle_pair_in_one_cell_matches_fine_grid():
    # a saddle model at k = 5/2 crosses twice, 2e-4 apart, near tau = 0.2:
    # inside one cell of its default grid, while a grid of 12k/eps nodes
    # puts the two crossings in different cells
    k = Fraction(5, 2)
    saddle = np.diag([1.0, -1.0])
    coarse = local_model_path(0.0, saddle, k=k)
    fine = local_model_path(0.0, saddle, k=k,
                            samples=int(12.0 * k / czengine.DEFAULT_EPSILON) + 1)
    got, ref = crossing_records(coarse), crossing_records(fine)
    cells = np.searchsorted(coarse.ts, [r.time for r in got])
    assert np.any(cells[1:] == cells[:-1])
    assert not np.any(np.diff(np.searchsorted(fine.ts, [r.time for r in ref])) == 0)
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert (g.kernel_dimension, g.signature) == (r.kernel_dimension, r.signature)
        assert abs(g.time - r.time) < czengine.TOL_BISECTION


def _bisect_root(f, a, b, fa, fb):
    # every bracket is a sign change of f: of g for a crossing, of g' for the
    # extremum of g in a same-sign cell
    while b - a > czengine.TOL_BISECTION:
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if (fa < 0) != (fm < 0):
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


@pytest.fixture(scope="module")
def crossing_paths():
    """Local models of every orbit of C:5, D:4 and T below the level-3
    threshold, and one direct sum in Sp(4) on the saddle's default grid."""
    paths = {f"{label}/{o.name}": local_model_for(o)
             for label in ("C:5", "D:4", "T") for o in enumerate_orbits(label, 3)}
    paths["sum"] = path_direct_sum(
        local_model_path(-1.0, np.eye(2), k=Fraction(5, 4), samples=1408),
        local_model_path(0.0, np.diag([1.0, -1.0]), k=Fraction(7, 4)),
    )
    return paths


def test_refined_crossings_match_bisection_reference(crossing_paths, monkeypatch):
    refined = {name: crossing_records(p) for name, p in crossing_paths.items()}
    monkeypatch.setattr(czengine, "_bracketed_root", _bisect_root)
    total = 0
    for name, path in crossing_paths.items():
        reference = crossing_records(path)
        assert len(refined[name]) == len(reference), name
        for got, ref in zip(refined[name], reference):
            assert (got.kernel_dimension, got.signature) == (ref.kernel_dimension, ref.signature)
            assert abs(got.time - ref.time) < czengine.TOL_BISECTION, name
        total += len(reference)
    assert refined["sum"] and total > 300


def test_refinement_makes_few_determinant_evaluations(crossing_paths, monkeypatch):
    # an evaluation is one det(Phi(t) - Id), with or without its slope, and
    # the cap holds for sign changes and extrema alike; a ternary search
    # alone would make about 80 per extremum
    counts = []
    calls = 0

    def counted(evaluate):
        def wrapper(path, t):
            nonlocal calls
            calls += 1
            return evaluate(path, t)
        return wrapper

    def counted_root(f, a, b, fa, fb, refine=czengine._bracketed_root):
        start = calls
        t = refine(f, a, b, fa, fb)
        counts.append(calls - start)
        return t

    for name in ("_det_and_slope", "_det_minus_id"):
        monkeypatch.setattr(czengine, name, counted(getattr(czengine, name)))
    monkeypatch.setattr(czengine, "_bracketed_root", counted_root)
    for path in crossing_paths.values():
        crossing_records(path)
    assert len(counts) > 200
    assert max(counts) <= 15


@pytest.mark.parametrize("fa", [-0.011034543650966365, -0.011034543650966363])
def test_extremum_nudge_stays_inside_the_bracket(fa):
    # a cell of the C:5 NorthPole^4 model whose regula falsi point lands
    # within TOL_BISECTION / 2 of the previous one at the bracket's end; one
    # ulp of the node slope decides whether the nudge points out of the
    # bracket, and then it must turn back in rather than restart from the
    # midpoint of the wide bracket
    (orbit,) = [o for o in enumerate_orbits("C:5", 3) if o.name == "NorthPole^4"]
    path = local_model_for(orbit)
    a, b = 0.624633431085044, 0.6256109481915934
    i = int(np.searchsorted(path.ts, a))
    assert (path.ts[i], path.ts[i + 1]) == (a, b)
    _g, slope = czengine._det_and_slope_values(path.values, path.generator.values)
    calls = 0

    def counted_slope(t):
        nonlocal calls
        calls += 1
        return czengine._det_and_slope(path, t)[1]

    t = czengine._bracketed_root(counted_slope, a, b, fa, slope[i + 1])
    assert calls <= 5
    reference = czengine._bracketed_root(counted_slope, a, b, slope[i], slope[i + 1])
    assert abs(t - reference) < czengine.TOL_BISECTION
    assert a < t < b


@pytest.mark.parametrize("label", ["C:5", "D:7", "I", "C:37"])
def test_extremal_local_model_touches_sit_at_closed_form_times(label):
    # at a minimum (H = Id) the local model is the rotation R((a - b) tau),
    # at a maximum (H = -Id) R((a + b) tau): it touches the identity exactly
    # at tau_j = 2 pi j / (a -+ b), each a touch of kernel dimension 2
    checked = 0
    for orbit in enumerate_orbits(label, 3):
        if orbit.rotation.b == 0:
            continue  # a saddle
        f_value = -1.0 if orbit.rotation.b < 0 else 1.0
        k = orbit.k / covering_multiplicity(orbit.group, orbit.base)
        eps = czengine.DEFAULT_EPSILON
        a = 4.0 * math.pi * k
        b = 2.0 * math.pi * k * eps / (1.0 + eps * f_value)
        omega = a - b if f_value < 0 else a + b
        expected = [2.0 * math.pi * j / omega for j in range(1, int(omega / (2.0 * math.pi)) + 1)]
        records = crossing_records(local_model_for(orbit))
        assert len(records) == len(expected), orbit.name
        for record, tau in zip(records, expected):
            assert abs(record.time - tau) < czengine.TOL_BISECTION, (orbit.name, tau)
            assert (record.kernel_dimension, record.signature) == (2, 2)
            checked += 1
    assert checked > 20


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sp2_trace_gap_is_within_drift(seed):
    # for 2x2 matrices Phi^T J0 Phi = det(Phi) J0, so 2 - tr Phi and
    # det(Phi - Id) = det Phi - tr Phi + 1 differ by |det Phi - 1| <= drift,
    # up to the rounding of the LU determinant, a few ulps of max|Phi|^2
    rng = np.random.default_rng(seed)
    for _ in range(4):
        path = _nondegenerate_path(rng, 1, scale=1.0 + 1.5 * rng.random())
        by_trace = czengine._det_minus_id_values(path.values)
        by_lu = np.linalg.det(path.values - np.eye(2))
        rounding = 4.0 * np.finfo(float).eps * np.max(np.abs(path.values), axis=(1, 2)) ** 2
        assert np.all(np.abs(by_trace - by_lu) <= path.drift + rounding)


def _drift_reference(values, j0):
    return float(np.max(np.abs(np.swapaxes(values, -1, -2) @ j0 @ values - j0)))


def _drift_stacks():
    """Solved Sp(2) and Sp(4) paths, Sp(2) products with large entries among
    them."""
    rng = np.random.default_rng(8)
    stacks = [_nondegenerate_path(rng, 2, scale=2.5).values]
    for _ in range(2):
        p = _nondegenerate_path(rng, 1, scale=2.5)
        stacks += [p.values, path_product(p, path_product(p, p)).values]
    stacks.append(local_model_for(enumerate_orbits("D:3", 2)[0]).values)
    for scale in (0.5, 2.0):  # constant hyperbolic generators, entries up to ~e^4
        stacks.append(_constant_path(scale * np.array([[0.0, 1.0], [1.0, 0.0]]), 1024).values)
    return stacks


def test_drift_is_the_two_product_residual_and_the_sp2_bound_holds():
    for values in _drift_stacks():
        j0 = standard_j(values.shape[-1] // 2)
        drift = czengine._drift(values, j0)
        assert drift == _drift_reference(values, j0)
        bound = czengine._drift_bound(values)
        if values.shape[-1] == 2:
            assert drift <= bound
        else:
            assert bound == math.inf


def test_sp2_path_forms_its_drift_when_read(monkeypatch):
    calls = []
    real = czengine._drift
    monkeypatch.setattr(czengine, "_drift", lambda *args: calls.append(1) or real(*args))
    path = local_model_path(-1.0, np.eye(2))
    assert calls == []
    assert path.drift == _drift_reference(path.values, standard_j(1))
    assert path.drift == path.drift and len(calls) == 1
    # a stack off Sp(2) fails the bound and the residual itself
    with pytest.raises(czengine.DriftExceeded):
        czengine.SymplecticPath(path.values * (1.0 + 1e-7 * path.ts[:, None, None]),
                                path.generator, path.func)


def test_non_finite_samples_exceed_the_drift_guard():
    # an inf entry makes the bound and the residual NaN, and NaN is not
    # within the tolerance
    path = local_model_path(-1.0, np.eye(2))
    values = path.values.copy()
    values[500:, 0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(czengine.DriftExceeded):
        czengine.SymplecticPath(values, path.generator, path.func)


def _lapack_cofactors(m):
    """Cofactor matrix of a stack of square matrices from LAPACK
    determinants of its (d - 1)-minors, the reference for the closed form."""
    d = m.shape[-1]
    keep = np.array([[j for j in range(d) if j != i] for i in range(d)])
    minors = m[..., keep[:, None, :, None], keep[None, :, None, :]]
    signs = (-1.0) ** np.add.outer(np.arange(d), np.arange(d))
    return signs * np.linalg.det(minors)


def _sp4_stacks():
    """Random 4x4 stacks of full rank and of rank deficiency 1 and 2."""
    rng = np.random.default_rng(5)
    full = rng.normal(size=(64, 4, 4))
    deficient = [rng.normal(size=(64, 4, r)) @ rng.normal(size=(64, r, 4)) for r in (3, 2)]
    return [full] + deficient


@pytest.mark.parametrize("stack", _sp4_stacks(), ids=["full", "deficiency-1", "deficiency-2"])
def test_sp4_laplace_kernel_matches_lapack(stack):
    e = czengine._entries(stack)
    det, top, bottom = czengine._laplace4(e)
    cof = np.moveaxis(np.array(czengine._cofactors4(e, top, bottom)), (0, 1), (-2, -1))
    size = np.max(np.abs(stack), axis=(1, 2))
    assert np.all(np.abs(det - np.linalg.det(stack)) <= 1e-12 * size**4)
    reference = _lapack_cofactors(stack)
    assert np.all(np.abs(cof - reference) <= 1e-12 * size[:, None, None] ** 3)
    for m, d_row, c_row in zip(stack, det, cof):
        entries = czengine._entries(m)
        d_one, top_one, bottom_one = czengine._laplace4(entries)
        assert d_one == d_row
        assert np.array_equal(np.array(czengine._cofactors4(entries, top_one, bottom_one)), c_row)


@pytest.mark.parametrize("n", [1, 2])
def test_one_matrix_reads_the_bits_of_its_stack_row(n):
    # the per-point reads of the refinement and the node scan agree bit for
    # bit, and the Sp(4) slope is Jacobi's formula with the product by Phi
    path = _nondegenerate_path(np.random.default_rng(40 + n), n)
    g, slope = czengine._det_and_slope_values(path.values, path.generator.values)
    for i in range(0, path.samples, 31):
        value, one_slope = czengine._det_and_slope_values(path.values[i], path.generator.values[i])
        assert (value, one_slope) == (g[i], slope[i])
        assert czengine._det_minus_id_values(path.values[i]) == g[i]
    phi_dot = standard_j(n) @ path.generator.values @ path.values
    if n == 1:
        jacobi = -(phi_dot[:, 0, 0] + phi_dot[:, 1, 1])
    else:
        jacobi = np.sum(_lapack_cofactors(path.values - np.eye(4)) * phi_dot, axis=(-2, -1))
    assert np.max(np.abs(slope - jacobi)) <= 1e-12 * np.max(np.abs(jacobi))


def _closed_form_corpus():
    """2x2 matrices: random, rank 1 within 1e-9, zero, +-Id, and entries
    scaled by 1e8."""
    rng = np.random.default_rng(12)
    random = list(rng.normal(size=(40, 2, 2)))
    rank1 = [np.outer(rng.normal(size=2), rng.normal(size=2)) + 1e-9 * rng.normal(size=(2, 2))
             for _ in range(40)]
    special = [np.zeros((2, 2)), np.eye(2), -np.eye(2)]
    return random + rank1 + special + [1e8 * m for m in random[:10] + rank1[:10]]


def _svd_kernel(m):
    _u, sig, vt = np.linalg.svd(m)
    return vt[sig < czengine.TOL_KERNEL_REL * max(1.0, float(sig[0]))].T


def test_sp2_kernel_basis_matches_svd():
    dims = set()
    for m in _closed_form_corpus():
        kernel, reference = czengine._kernel_basis(m), _svd_kernel(m)
        assert kernel.shape == reference.shape
        dims.add(kernel.shape[1])
        # orthonormal columns spanning the same subspace
        assert np.allclose(kernel.T @ kernel, np.eye(kernel.shape[1]), atol=1e-12)
        assert np.allclose(kernel @ kernel.T, reference @ reference.T, atol=1e-6)
    assert dims == {0, 1, 2}


def _eigvalsh_signature(sym):
    eigs = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    scale = max(1.0, float(np.max(np.abs(eigs))))
    if np.any(np.abs(eigs) < czengine.TOL_DEAD_ZONE * scale):
        return "dead zone"
    return int(np.sum(eigs > 0) - np.sum(eigs < 0))


def test_small_form_signature_matches_eigvalsh():
    forms = [0.5 * (m + m.T) for m in _closed_form_corpus()]
    forms += [m @ m.T for m in _closed_form_corpus()[40:80]]  # rank 1 within 1e-18
    forms += [np.array([[x]]) for x in (2.0, -0.3, 0.0, 1e-12, -1e8)]
    outcomes = set()
    for sym in forms:
        try:
            got = czengine._signature(sym)
        except czengine.IrregularCrossing as err:
            assert "dead zone" in str(err)
            got = "dead zone"
        assert got == _eigvalsh_signature(sym), sym
        outcomes.add(got)
    assert outcomes == {-2, -1, 0, 1, 2, "dead zone"}


def test_sp6_crossing_form_is_rejected():
    # no return map or suite path reaches Sp(6); a direct sum of three local
    # models does, and the crossing-form kernels refuse it
    p = local_model_path(-1.0, np.eye(2))
    total = path_direct_sum(p, path_direct_sum(p, p))
    assert total.n == 3
    with pytest.raises(ValueError, match=r"Sp\(2\) and Sp\(4\), not Sp\(6\)"):
        cz_crossing_form(total)


def test_rotation_route_needs_a_nondegenerate_path_in_sp2():
    with pytest.raises(ValueError, match="requires a path in Sp"):
        rotation_cz_sp2(_constant_path(np.diag([1.0, -1.0, 2.0, 3.0])))
    # the zero generator ends at the identity, where no index is defined
    identity = _constant_path(np.zeros((2, 2)))
    with pytest.raises(czengine.DegenerateEndpoint):
        rotation_cz_sp2(identity)
    with pytest.raises(czengine.DegenerateEndpoint):
        crossing_records(identity)


def _slope_paths():
    rng = np.random.default_rng(23)
    return [
        local_model_path(-1.0, np.eye(2), k=2),
        _nondegenerate_path(rng, 1),
        _nondegenerate_path(rng, 2),
    ]


def test_jacobi_slope_matches_central_difference():
    delta = 1e-6
    for path in _slope_paths():
        g = np.abs(np.linalg.det(path.values - np.eye(2 * path.n)))
        checked = 0
        for i in range(40, path.samples - 40, 97):
            t = 0.5 * (path.ts[i] + path.ts[i + 1])
            if min(g[i], g[i + 1]) < 1e-2 * max(1.0, float(np.max(g))):
                continue  # near a crossing
            value, slope = czengine._det_and_slope(path, t)
            assert value == pytest.approx(czengine._det_minus_id(path, t), rel=1e-10)
            diff = (czengine._det_minus_id(path, t + delta)
                    - czengine._det_minus_id(path, t - delta)) / (2.0 * delta)
            assert slope == pytest.approx(diff, rel=1e-6), (path.n, t)
            checked += 1
        assert checked >= 5


# ---------------------------------------------------------------------------
# rotation numbers in Sp(2)
# ---------------------------------------------------------------------------


def test_rotation_index_elliptic():
    c = 2.0 * math.pi * 0.75
    theta, mu = rotation_cz_sp2(_constant_path(c * np.eye(2)))
    assert abs(theta - 0.75) < 1e-6
    assert mu == 1


def test_rotation_index_positive_hyperbolic_full_turn():
    hyp = _constant_path(np.diag([1.0, -1.0]), samples=czengine.DEFAULT_SAMPLES)
    path = path_product(czengine._rotation_loop(1), hyp)
    theta, mu = rotation_cz_sp2(path)
    assert abs(theta - 1.0) < 1e-6
    assert mu == 2


def test_rotation_index_negative_hyperbolic_half_turn():
    def gen(t):
        # conjugated rotation-plus-shear generator: endpoint -exp(J0 S)
        r = _rot2(math.pi * t)
        return math.pi * np.eye(2) + r @ np.diag([1.0, -1.0]) @ r.T

    path = solve_path(SymmetricPath.from_callable(gen, samples=2049))
    theta, mu = rotation_cz_sp2(path)
    assert abs(theta - 0.5) < 1e-6
    assert mu == 1
    eigs = np.linalg.eigvals(path.endpoint())
    assert np.all(eigs.real < 0) and np.max(np.abs(eigs.imag)) < 1e-8


def test_rotation_index_rejects_a_wrong_hyperbolic_eigenvector(monkeypatch):
    # an eigenvector of the endpoint turned by 1e-3 rad is not mapped onto
    # its own line, so its image winds by no multiple of pi
    path = _constant_path(np.diag([1.0, -1.0]))
    real = np.linalg.eig

    def turned_eig(a):
        values, vectors = real(a)
        return values, _rot2(1e-3) @ vectors

    monkeypatch.setattr(np.linalg, "eig", turned_eig)
    with pytest.raises(czengine.UnwrapFailure, match="is not a half-integer"):
        rotation_cz_sp2(path)


def test_rotation_index_agrees_with_crossing_form_on_random_paths():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(12):
        path = _nondegenerate_path(rng, 1)
        try:
            theta, mu = rotation_cz_sp2(path)
        except czengine.UnwrapFailure:
            continue
        assert mu == cz_crossing_form(path)
        checked += 1
    assert checked >= 8


# ---------------------------------------------------------------------------
# loop index
# ---------------------------------------------------------------------------


def test_maslov_loop_constant_is_zero():
    loop = _constant_path(np.zeros((2, 2)))  # identically the identity
    assert maslov_loop(loop) == 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_maslov_loop_winding(k):
    assert maslov_loop(czengine._rotation_loop(k)) == k


def test_maslov_loop_of_fiber_reparameterization():
    # the loop tau -> R(4 pi k tau) winds twice per fiber turn
    for k in (1, 2):
        assert maslov_loop(czengine._rotation_loop(2 * k)) == 2 * k


def test_maslov_loop_rejects_open_paths():
    with pytest.raises(ValueError):
        maslov_loop(_constant_path(np.eye(2)))


def test_maslov_loop_rejects_an_unresolved_grid():
    # 300 turns on 1,024 nodes step 600 pi / 1023 = 1.843 rad per cell
    with pytest.raises(czengine.UnwrapFailure, match="angle step 1.843 exceeds pi/2"):
        maslov_loop(czengine._rotation_loop(300))


@pytest.mark.parametrize("n, c", [(1, 0.25), (2, 0.5), (3, 0.5)])
def test_maslov_loop_rejects_a_loop_outside_sp(n, c):
    # the complex-linear part of c Id is c Id, of determinant c^n, far below
    # the 1 every symplectic matrix clears (0.5 Id in Sp(2) sits on the
    # bound 2^n / 2 itself); the polar factor of c Id is Id and wound 0
    values = np.broadcast_to(c * np.eye(2 * n), (512, 2 * n, 2 * n))
    loop = SimpleNamespace(n=n, values=values, endpoint=lambda: values[-1])
    with pytest.raises(ValueError, match="complex-linear part"):
        maslov_loop(loop)


@pytest.mark.parametrize("k", [-2, 1, 3])
def test_maslov_loop_of_a_conjugated_sp4_loop(k):
    # C L(t) C^-1 with C symplectic and not orthogonal winds as L(t): its
    # generator is C^-T S C^-1
    a = np.array([[2.0, 1.0], [0.0, 0.5]])
    c = np.zeros((4, 4))
    c[:2, :2], c[2:, 2:] = a, np.linalg.inv(a).T
    c = c @ czengine._expm(standard_j(2) @ np.diag([0.3, 0.0, 0.0, -0.2]))
    c_inv = -standard_j(2) @ c.T @ standard_j(2)
    loop = czengine._rotation_loop(k, n=2)
    s = c_inv.T @ loop.generator.at(0.0) @ c_inv
    s = 0.5 * (s + s.T)
    conjugated = czengine._vectorized_path(
        lambda t: c @ loop.func(t) @ c_inv, lambda t: np.broadcast_to(s, np.shape(t) + s.shape))
    assert np.max(np.abs(c.T @ standard_j(2) @ c - standard_j(2))) < 1e-14
    assert np.max(np.abs(c.T @ c - np.eye(4))) > 1.0
    assert maslov_loop(conjugated) == k


# ---------------------------------------------------------------------------
# local models
# ---------------------------------------------------------------------------


def test_local_model_minimum():
    path = local_model_path(-1.0, np.eye(2), eps=1e-3, k=1)
    assert cz_crossing_form(path) == 3


def test_local_model_saddle():
    path = local_model_path(0.0, np.diag([1.0, -1.0]), eps=1e-3, k=1)
    assert cz_crossing_form(path) == 4


def test_local_model_maximum_double_cover():
    path = local_model_path(1.0, -np.eye(2), eps=1e-3, k=2)
    assert cz_crossing_form(path) == 9


def test_local_model_matches_orbit_indices_below_low_threshold():
    for label in ("C:4", "D:3", "T"):
        for orbit in enumerate_orbits(label, 1):
            path = local_model_for(orbit, eps=1e-3)
            assert cz_crossing_form(path) == orbit.cz
            theta, mu = rotation_cz_sp2(path)
            assert mu == orbit.cz


@pytest.mark.parametrize("hessian", [np.eye(2), np.diag([1.0, -1.0]), -np.eye(2),
                                     np.array([[2.0, 0.5], [0.5, -1.0]])])
@pytest.mark.parametrize("k", [1, Fraction(7, 4), 3])
def test_local_model_nodes_equal_its_evaluators(hessian, k):
    # at eps = 1e-300, b^2 underflows and det(m0) is exactly 0
    for eps in (czengine.DEFAULT_EPSILON, 1e-300):
        path = local_model_path(0.3, hessian, eps=eps, k=k)
        gen = path.generator
        assert np.array_equal(gen.values, np.swapaxes(gen.values, 1, 2))
        for i, t in enumerate(path.ts):
            assert np.max(np.abs(path.values[i] - path.at(t))) <= 1e-13
            assert np.max(np.abs(gen.values[i] - gen.at(t))) <= 1e-12


def test_local_model_rejects_bad_arguments():
    with pytest.raises(ValueError):
        local_model_path(0.0, np.diag([1.0, -1.0]), eps=1e-3, k=0)
    with pytest.raises(ValueError):
        local_model_path(0.0, np.zeros((2, 2)), eps=1e-3, k=1)
    with pytest.raises(ValueError):
        local_model_path(0.0, np.diag([1.0, -1.0]), eps=0.0, k=1)
    with pytest.raises(ValueError, match="symmetric 2x2"):
        local_model_path(0.0, [[1.0, 0.5], [0.0, -1.0]])
    with pytest.raises(ValueError, match="symmetric 2x2"):
        local_model_path(0.0, np.eye(3))
    with pytest.raises(ValueError, match="1 \\+ eps\\*f must be positive"):
        local_model_path(-200.0, np.eye(2), eps=1e-2)


# ---------------------------------------------------------------------------
# path algebra
# ---------------------------------------------------------------------------


def test_path_product_multiplies_values():
    p = _constant_path(1.3 * np.eye(2))
    q = _constant_path(np.diag([1.0, -1.0]))
    prod = path_product(p, q)
    for t in (0.4, 1.0):
        assert np.allclose(prod.at(t), p.at(t) @ q.at(t), atol=1e-8)


def test_path_product_needs_one_dimension():
    with pytest.raises(ValueError, match="paths must share a dimension"):
        path_product(_constant_path(np.eye(2)), _constant_path(np.eye(4)))


def test_path_inverse_inverts_values():
    p = _constant_path(np.diag([2.0, -0.5]))
    inv = path_inverse(p)
    for t in (0.5, 1.0):
        assert np.allclose(inv.at(t) @ p.at(t), np.eye(2), atol=1e-8)


def _product_reference(p, q, ts):
    """Per-sample values and generator of t -> P(t) Q(t)."""
    j0 = standard_j(p.n)
    values, gens = [], []
    for t in ts:
        pt = p.at(t)
        values.append(pt @ q.at(t))
        g = p.generator.at(t) + j0 @ pt @ j0 @ q.generator.at(t) @ j0 @ pt.T @ j0
        gens.append(0.5 * (g + g.T))
    return np.stack(values), np.stack(gens)


def _inverse_reference(p, ts):
    """Per-sample values and generator of t -> P(t)^{-1}."""
    j0 = standard_j(p.n)
    values, gens = [], []
    for t in ts:
        pt = p.at(t)
        values.append(-j0 @ pt.T @ j0)
        g = -(pt.T @ p.generator.at(t) @ pt)
        gens.append(0.5 * (g + g.T))
    return np.stack(values), np.stack(gens)


def _embed(a, b):
    i1, i2 = czengine._interleave_indices(a.shape[0] // 2, b.shape[0] // 2)
    m = np.zeros((a.shape[0] + b.shape[0],) * 2)
    m[np.ix_(i1, i1)] = a
    m[np.ix_(i2, i2)] = b
    return m


def _direct_sum_reference(p, q, ts):
    """Per-sample values and generator of the direct sum."""
    values = np.stack([_embed(p.at(t), q.at(t)) for t in ts])
    gens = np.stack([_embed(p.generator.at(t), q.generator.at(t)) for t in ts])
    return values, gens


def _assert_matches(path, reference):
    values, gens = reference
    assert np.max(np.abs(path.values - values)) < 1e-12
    assert np.max(np.abs(path.generator.values - gens)) < 1e-12


@pytest.fixture(scope="module")
def operand_paths():
    """Two solved random paths and a path with an exact evaluator, all on
    the default 1024-node grid."""
    rng = np.random.default_rng(5)
    p = _nondegenerate_path(rng, 1)
    q = _nondegenerate_path(rng, 1)
    exact = path_product(czengine._rotation_loop(1),
                         _constant_path(np.diag([1.0, -1.0]), samples=czengine.DEFAULT_SAMPLES))
    return p, q, exact


def test_batched_algebra_matches_per_sample_on_shared_grid(operand_paths):
    p, q, exact = operand_paths
    assert p.samples == q.samples == exact.samples == 1024
    assert _is_solved(p) and not _is_solved(exact)
    _assert_matches(path_product(p, q), _product_reference(p, q, p.ts))
    _assert_matches(path_product(p, exact), _product_reference(p, exact, p.ts))
    _assert_matches(path_product(exact, p), _product_reference(exact, p, p.ts))
    _assert_matches(path_inverse(p), _inverse_reference(p, p.ts))
    _assert_matches(path_inverse(exact), _inverse_reference(exact, p.ts))
    _assert_matches(path_direct_sum(p, q), _direct_sum_reference(p, q, p.ts))
    _assert_matches(path_direct_sum(p, exact), _direct_sum_reference(p, exact, p.ts))


def test_algebra_needs_one_grid(operand_paths):
    p, _q, _exact = operand_paths
    fine = _constant_path(np.diag([1.0, -1.0]), samples=4097)
    assert (p.samples, fine.samples) == (1024, 4097)
    for combine in (path_product, path_direct_sum):
        for pair in ((p, fine), (fine, p)):
            with pytest.raises(ValueError, match="one grid"):
                combine(*pair)


def test_algebra_off_grid_values_use_exact_evaluators(operand_paths):
    p, q, exact = operand_paths
    j0 = standard_j(1)
    t = 0.123456789  # not a grid node
    prod = path_product(p, exact)
    assert np.array_equal(prod.at(t), p.at(t) @ exact.at(t))
    _, ref_gens = _product_reference(p, exact, [t])
    assert np.array_equal(prod.generator.at(t), ref_gens[0])
    inv = path_inverse(p)
    assert np.array_equal(inv.at(t), -j0 @ p.at(t).T @ j0)
    assert np.array_equal(inv.generator.at(t), _inverse_reference(p, [t])[1][0])
    total = path_direct_sum(p, q)
    assert np.array_equal(total.at(t), _embed(p.at(t), q.at(t)))
    assert np.array_equal(total.generator.at(t), _embed(p.generator.at(t), q.generator.at(t)))


def test_product_reads_a_solved_operand_once_per_time(operand_paths, monkeypatch):
    # the product's value and its generator both read the solved operand at
    # t; the second read returns the first one's substep
    p = operand_paths[0]
    exact = czengine._rotation_loop(1)
    prod = path_product(p, exact)
    calls = []
    real = czengine._rk4_increment
    monkeypatch.setattr(czengine, "_rk4_increment", lambda *args: calls.append(1) or real(*args))
    t = 0.3141592653589793  # not a grid node
    value, slope = czengine._det_and_slope(prod, t)
    assert len(calls) == 1
    monkeypatch.setattr(czengine, "_rk4_increment", real)
    assert (value, slope) == czengine._det_and_slope_values(
        p.at(t) @ exact.at(t), _product_reference(p, exact, [t])[1][0])
    with pytest.raises(ValueError):
        p.at(t)[0, 0] = 0.0  # the kept substep is read-only


def test_local_model_crossing_form_symmetrizes_nothing(monkeypatch):
    # every local-model evaluator returns exactly symmetric matrices, and
    # Sp(2) kernels and forms take closed forms in place of LAPACK
    calls = []
    for module, name in ((czengine, "_symmetrized"), (np.linalg, "svd"),
                         (np.linalg, "eigvalsh")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, real=real, name=name: calls.append(name) or real(*args))
    orbits = enumerate_orbits("D:3", 3)
    for orbit in orbits:
        assert cz_crossing_form(local_model_for(orbit)) == orbit.cz
    assert len(orbits) > 10 and calls == []


def test_suite_builders_sample_the_grid_like_their_evaluators():
    gen = czengine._random_generator(np.random.default_rng(9), 2)
    assert np.max(np.abs(gen.values - np.stack([gen.at(t) for t in gen.ts]))) < 1e-12
    loop = czengine._rotation_loop(-2, n=2)
    assert np.max(np.abs(loop.values - np.stack([loop.at(t) for t in loop.ts]))) < 1e-12
    assert np.max(np.abs(loop.generator.values
                         - np.stack([loop.generator.at(t) for t in loop.ts]))) < 1e-12


def test_stacked_expm_matches_one_matrix_at_a_time():
    rng = np.random.default_rng(3)
    stack = rng.normal(0.0, 1.0, size=(40, 4, 4)) * np.linspace(0.0, 3.0, 40)[:, None, None]
    batched = czengine._expm(stack)
    for m, e in zip(stack, batched):
        assert np.array_equal(czengine._expm(m), e)
    j0 = standard_j(2)
    s = 0.5 * (stack[-1] + stack[-1].T)
    e = czengine._expm(j0 @ s)
    assert np.max(np.abs(e.T @ j0 @ e - j0)) < 1e-10


def test_direct_sum_adds_indices():
    p = _constant_path(1.0 * np.eye(2))
    q = _constant_path(4.5 * np.eye(2))
    total = path_direct_sum(p, q)
    assert total.n == 2
    assert cz_crossing_form(total) == cz_crossing_form(p) + cz_crossing_form(q)


def test_axiom_suite_clean():
    report = cz_axiom_suite(seed=11, instances=12)
    assert report["check"] == "cz_axioms"
    assert report["failures"] == []
    assert report["instances"] >= 12
    assert report["max_residual"] < 1e-8


def test_axiom_suite_catches_an_inverse_that_returns_its_argument(monkeypatch):
    monkeypatch.setattr(czengine, "path_inverse", lambda p: p)
    with pytest.raises(czengine.AxiomViolation, match="'axiom': 'inverse'"):
        cz_axiom_suite(seed=11, instances=10)


@pytest.mark.parametrize("seed", [484553450, 348387268, 4002431733])
def test_axiom_suite_known_first_cell_misses(seed):
    # each of these draws a path with a crossing in (0, ts[1])
    report = cz_axiom_suite(seed, instances=10)
    assert report["failures"] == []


#: instances, ``max_residual.hex()`` and failure count of ``cz_axiom_suite``
#: reports, recorded while the suite still drew and solved one path at a time
SUITE_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "axiom_suite_digests.json").read_text())


def _digest(seed, report):
    return [seed, report["instances"], report["max_residual"].hex(), len(report["failures"])]


@pytest.mark.parametrize("instances", ["10", "50"])
def test_axiom_suite_reports_match_recorded_digests(instances):
    recorded = SUITE_DIGESTS["suites"][instances]
    assert [_digest(seed, cz_axiom_suite(seed, int(instances))) for seed, *_ in recorded] == recorded


def _reject_first_draw_of_path(instance):
    """A ``_random_generator`` that draws as usual, but swaps the first
    generator drawn for the suite's path ``instance`` for a zero one, whose
    path ends at the identity and is rejected; naturality generators
    (scale 0.7) are not counted."""
    real, drawn = czengine._random_generator, []

    def draw(rng, n, scale=1.0):
        gen = real(rng, n, scale=scale)
        if scale != 0.7:
            drawn.append(scale)
            if len(drawn) == instance + 1:
                return czengine._constant_generator(np.zeros((2 * n, 2 * n)))
        return gen
    return draw


def _irregular_first_homotopy(instance):
    """A ``path_product`` that raises ``IrregularCrossing`` on the first
    homotopy product of path ``instance``: the homotopy products are the
    ones of a solved path by a perturbation, which has a closed form."""
    real, seen = czengine.path_product, []

    def product(p, q):
        if _is_solved(p) and not _is_solved(q):
            seen.append(q)
            if len(seen) == instance + 1:
                raise czengine.IrregularCrossing("injected irregular homotopy")
        return real(p, q)
    return product


FORCED_REDRAWS = {
    "reject_path_3": ("_random_generator", lambda: _reject_first_draw_of_path(3)),
    "irregular_homotopy_5": ("path_product", lambda: _irregular_first_homotopy(5)),
}


@pytest.mark.parametrize("name", sorted(FORCED_REDRAWS))
def test_axiom_suite_redraw_replays_the_sequential_draw(monkeypatch, name):
    # a redraw takes the next draw of the sequential stream, not of the
    # data already drawn ahead
    attribute, patched = FORCED_REDRAWS[name]
    for seed, *digest in SUITE_DIGESTS["forced_redraws"][name]:
        with monkeypatch.context() as mp:
            mp.setattr(czengine, attribute, patched())
            assert _digest(seed, cz_axiom_suite(seed, 10)) == [seed, *digest]


def _crossing_digest(run):
    """The ``crossing_records`` calls that ``run()`` makes: their count, the
    count of records they return, and the SHA-256 of every call's records
    in call order, each record as ``(time.hex(), kernel_dimension,
    signature)`` and a call that raises as its exception's name."""
    real, calls = czengine.crossing_records, []

    def recording(path):
        try:
            records = real(path)
        except ArithmeticError as error:
            calls.append(type(error).__name__)
            raise
        calls.append([[r.time.hex(), int(r.kernel_dimension), int(r.signature)]
                      for r in records])
        return records

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(czengine, "crossing_records", recording)
        run()
    records = sum(len(call) for call in calls if isinstance(call, list))
    return [len(calls), records, hashlib.sha256(json.dumps(calls).encode()).hexdigest()]


def _suite_crossings(seed):
    return _crossing_digest(lambda: cz_axiom_suite(seed, 10))


def _battery_crossings(label):
    return _crossing_digest(lambda: [czengine.crossing_records(local_model_for(orbit))
                                     for orbit in enumerate_orbits(label, 3)])


#: ``_suite_crossings`` of the axiom suite at seeds 0-9 (10 paths each) and
#: ``_battery_crossings`` of every spec of the cz-engine battery (local
#: models below the level-3 threshold, default eps), recorded while solved
#: paths still read off-grid values by a substep inside ``SymplecticPath.at``;
#: regenerated from the repository root by
#:     PYTHONPATH=src:tests python -c "import json, test_czengine as t; print(json.dumps(
#:         {'suites': {s: t._suite_crossings(s) for s in range(10)},
#:          'battery': {g: t._battery_crossings(g) for g in t.cli.BATTERY}}, indent=1))" \
#:         > tests/data/crossing_digests.json
CROSSING_DIGESTS = Path(__file__).parent / "data" / "crossing_digests.json"


def test_every_crossing_record_matches_its_recorded_digest():
    recorded = json.loads(CROSSING_DIGESTS.read_text())
    suites, battery = recorded["suites"], recorded["battery"]
    assert list(suites) == [str(seed) for seed in range(10)]
    assert list(battery) == list(cli.BATTERY)
    for seed, digest in suites.items():
        assert _suite_crossings(int(seed)) == digest, seed
    for label, digest in battery.items():
        assert _battery_crossings(label) == digest, label


def test_nondegenerate_paths_drawn_ahead_equal_one_at_a_time(monkeypatch):
    # the third draw is rejected once, so one redraw replays the stream
    monkeypatch.setattr(czengine, "_random_generator", _reject_first_draw_of_path(2))
    together = czengine._random_nondegenerate_paths(np.random.default_rng(12), 1, 5)
    monkeypatch.setattr(czengine, "_random_generator", _reject_first_draw_of_path(2))
    rng = np.random.default_rng(12)
    for path, mu in together:
        ((alone, mu_alone),) = czengine._random_nondegenerate_paths(rng, 1, 1)
        assert np.array_equal(path.values, alone.values)
        assert mu == mu_alone == cz_crossing_form(path)


def test_a_path_drawn_ahead_raises_its_guard_only_when_used():
    gens = [czengine._constant_generator(np.diag([1.0, -1.0])),
            czengine._constant_generator(50.0 * np.eye(2))]  # RK4 drift about 2e-7
    draws = czengine._DrawAhead(np.random.default_rng(0), [0, 1],
                                lambda rng, key, data: gens[key])
    assert draws.path(0).drift < czengine.TOL_DRIFT
    with pytest.raises(czengine.DriftExceeded):
        draws.path(1)


@pytest.mark.parametrize("n", [1, 2])
def test_random_generator_single_time_route_is_the_array_sum(n):
    # the single-time evaluator sums in Python floats what the array route
    # sums in arrays, with math.cos/sin: bit for bit that sum at one time
    scale = 1.7
    gen = czengine._random_generator(np.random.default_rng(23 + n), n, scale=scale)
    rng = np.random.default_rng(23 + n)  # the generator's five coefficient draws
    a0, c1, d1, c2, d2 = (0.5 * (m + m.T) for m in (
        rng.normal(0.0, amp, size=(2 * n, 2 * n))
        for amp in (scale, scale / 2, scale / 2, scale / 3, scale / 3)))
    for t in [0.0, 0.5, 1.0, *np.random.default_rng(5).random(40)]:
        u, v = 2.0 * math.pi * 1 * t, 2.0 * math.pi * 2 * t
        expected = a0 + c1 * math.cos(u) + d1 * math.sin(u)
        expected = expected + c2 * math.cos(v) + d2 * math.sin(v)
        assert np.array_equal(gen.at(t), expected)


SUITE_PEAK_BOUND_MB = 10


def test_axiom_suite_traced_peak_is_bounded():
    # the march builds its increments a block of grid cells at a time, so
    # its temporaries do not grow with the paths drawn ahead
    cz_axiom_suite(0, 10)  # grids and other process-lifetime caches
    tracemalloc.start()
    try:
        cz_axiom_suite(1, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < SUITE_PEAK_BOUND_MB * 1e6, f"traced peak {peak / 1e6:.1f} MB"


# ---------------------------------------------------------------------------
# spectral flow
# ---------------------------------------------------------------------------


def _linear_family(s0, s1, order=16):
    a, b = np.asarray(s0, float), np.asarray(s1, float)

    def func(s, t):
        w = 0.5 * (s + 1.0)
        return (1.0 - w) * a + w * b

    return AsymptoticFamily(func, n=1, fourier_order=order)


def _reference_operator_matrix(family, s, k):
    """Galerkin matrix of A_s assembled point by point: S(s, .) sampled at
    every quadrature point and contracted with the Fourier basis in one
    einsum."""
    d = 2 * family.n
    m_quad = max(256, 8 * k)
    ts = np.arange(m_quad) / m_quad
    svals = np.stack([np.asarray(family.func(s, t), dtype=float) for t in ts])
    basis = np.empty((2 * k + 1, m_quad))
    basis[0] = 1.0
    for m in range(1, k + 1):
        basis[2 * m - 1] = math.sqrt(2.0) * np.cos(2.0 * math.pi * m * ts)
        basis[2 * m] = math.sqrt(2.0) * np.sin(2.0 * math.pi * m * ts)
    gram = np.einsum("aj,bj,juv->aubv", basis, basis, svals) / m_quad
    dim = d * (2 * k + 1)
    a = -gram.reshape(dim, dim)
    j0 = standard_j(family.n)
    for m in range(1, k + 1):
        c = (2 * m - 1) * d
        sblk = (2 * m) * d
        a[sblk : sblk + d, c : c + d] += 2.0 * math.pi * m * j0
        a[c : c + d, sblk : sblk + d] += -2.0 * math.pi * m * j0
    return 0.5 * (a + a.T)


@pytest.fixture(scope="module")
def named_families():
    ((seeded, _cz0, _cz1),) = cli.seeded_flow_families(2026, 1)
    return {
        "canonical": cli.canonical_flow_family(),
        "resonance": cli.resonance_family(),
        "seeded": seeded,
    }


@pytest.mark.parametrize("name", ["canonical", "resonance", "seeded"])
@pytest.mark.parametrize("k", [16, 32])
def test_operator_matrix_matches_pointwise_assembly(named_families, name, k):
    fam = named_families[name]
    for s in (-1.0, -0.3, 0.5, 1.0):
        ref = _reference_operator_matrix(fam, s, k)
        assert np.max(np.abs(czengine._operator_matrix(fam, s, k) - ref)) < 1e-12, s


def test_family_must_be_affine_in_s():
    def func(s, t):
        return s * s * np.eye(2) + np.diag([1.0, -1.0])

    with pytest.raises(ValueError, match="family is not affine in s"):
        AsymptoticFamily(func, n=1)


def test_family_arguments_are_validated():
    even = lambda s, t: np.diag([1.0, -1.0])
    with pytest.raises(ValueError, match="order must be >= 4"):
        AsymptoticFamily(even, n=1, fourier_order=3)
    with pytest.raises(ValueError, match="must be 2n x 2n"):
        AsymptoticFamily(even, n=2)
    with pytest.raises(ValueError, match="must be symmetric"):
        AsymptoticFamily(lambda s, t: np.array([[1.0, 1.0], [0.0, -1.0]]), n=1)
    with pytest.raises(ValueError, match="not 1-periodic in t: defect 1.000e\\+00"):
        AsymptoticFamily(lambda s, t: np.diag([1.0, t - 1.0]), n=1)


def test_family_end_with_a_kernel_is_endpoint_degenerate():
    # S(-1, .) = 0 leaves A_-1 = -J0 d/dt, whose kernel holds the constant loops
    fam = AsymptoticFamily(lambda s, t: 0.5 * (1.0 + s) * np.diag([1.0, -1.0]), n=1,
                           fourier_order=8)
    with pytest.raises(czengine.EndpointDegenerate, match="s = -1 has an eigenvalue"):
        spectral_flow(fam)


def test_spectral_flow_samples_each_family_end_once():
    calls = 0
    lo, hi = np.diag([1.0, -1.0]), 2.0 * np.eye(2)

    def func(s, t):
        nonlocal calls
        calls += 1
        return 0.5 * (1.0 - s) * lo + 0.5 * (1.0 + s) * hi

    fam = AsymptoticFamily(func, n=1, fourier_order=16)
    spot_checks = calls
    assert spectral_flow(fam, order=16) == 1
    # 256 quadrature points at each end; the crossing search never samples S
    assert calls - spot_checks <= 2 * 256


def test_sign_lemma_operator_form_uses_exact_derivative(monkeypatch):
    fam = _linear_family(np.diag([1.0, -1.0]), 2.0 * np.eye(2))
    # a frozen return map has d/ds Psi = 0, so every crossing is reported as
    # a failure together with the operator form it computed
    frozen = solve_path(fam.path_at(0.0))
    monkeypatch.setattr(czengine, "solve_paths", lambda generators: [frozen for _ in generators])
    report = verify_crossing_sign_lemma(fam)
    assert report["failures"]
    da = 0.5 * (czengine._operator_matrix(fam, 1.0) - czengine._operator_matrix(fam, -1.0))
    for failure in report["failures"]:
        eigvals, eigvecs = np.linalg.eigh(czengine._operator_matrix(fam, failure["s"]))
        eta = eigvecs[:, int(np.argmin(np.abs(eigvals)))]
        assert failure["gamma_operator"] == pytest.approx(float(eta @ da @ eta), rel=1e-12)


def test_spectral_flow_of_constant_family_is_zero():
    fam = _linear_family(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))
    assert spectral_flow(fam) == 0


def test_spectral_flow_counts_one_crossing():
    fam = _linear_family(np.diag([1.0, -1.0]), 2.0 * np.eye(2))
    flow = spectral_flow(fam)
    cz0 = cz_crossing_form(_constant_path(np.diag([1.0, -1.0])))
    cz1 = cz_crossing_form(_constant_path(2.0 * np.eye(2)))
    assert flow == cz1 - cz0 == 1


def test_spectral_flow_stable_under_refinement():
    fam = _linear_family(np.diag([1.0, -1.0]), 2.0 * np.eye(2), order=16)
    assert spectral_flow(fam, order=16) == spectral_flow(fam, order=32)


@pytest.mark.parametrize("c, sep", [(0.06, 0.01), (0.3, 0.04), (0.05, 0.03), (0.03, 0.02)])
def test_two_crossings_in_one_grid_cell_are_recorded_once(c, sep):
    # diag(2pi + d + 10u, 2pi + d - 10u), u = s - c, has a two-dimensional
    # kernel at u = -sep and at u = +sep, a pair of double crossings that
    # cancel in the negative count; each must be recorded once
    d = math.sqrt(4.0 * math.pi**2 + (10.0 * sep) ** 2) - 2.0 * math.pi

    def func(s, t):
        u = 10.0 * (s - c)
        return np.diag([2.0 * math.pi + d + u, 2.0 * math.pi + d - u])

    fam = AsymptoticFamily(func, n=1, fourier_order=8)
    crossings, flow = czengine._locate_crossings(fam, 8)
    assert flow == spectral_flow(fam) == 0
    inside = [cr for cr in crossings if abs(cr["s"] - c) < 2.0 * sep]
    assert [cr["direction"] for cr in inside] == [2, -2]
    assert [cr["s"] for cr in inside] == pytest.approx([c - sep, c + sep], abs=1e-8)
    report = verify_crossing_sign_lemma(fam)
    assert report["failures"] == []
    assert report["instances"] == 6  # two simple crossings and two double ones


def _near_touch_family(eps):
    # det S(s, .) = eps - (s - 0.1)^2: two simple crossings 2 sqrt(eps) apart
    # around s = 0.1, or an eigenvalue touching zero there when eps = 0
    def func(s, t):
        return np.array([[eps, s - 0.1], [s - 0.1, 1.0]])

    return AsymptoticFamily(func, n=1, fourier_order=8)


def test_close_crossing_pair_is_found():
    crossings, flow = czengine._locate_crossings(_near_touch_family(1e-6), 8)
    assert [cr["direction"] for cr in crossings] == [1, -1]
    assert [cr["s"] for cr in crossings] == pytest.approx([0.099, 0.101], abs=1e-9)
    assert flow == 0


def test_touch_without_crossing_is_tracking_ambiguity():
    with pytest.raises(czengine.TrackingAmbiguity, match="near s = 0.100000"):
        czengine._locate_crossings(_near_touch_family(0.0), 8)


def _crossing_direction_families():
    families = [("canonical", cli.canonical_flow_family()), ("resonance", cli.resonance_family())]
    for seed in (2026, 2027):
        families += [(f"{seed}-{i}", fam)
                     for i, (fam, _c0, _c1) in enumerate(cli.seeded_flow_families(seed, 8))]
    return families


@pytest.mark.parametrize("k", [16, 32])
def test_crossing_direction_is_the_change_of_negative_count(k):
    delta = 1e-7
    checked = 0
    for name, fam in _crossing_direction_families():
        crossings, flow = czengine._locate_crossings(fam, k)
        assert sum(cr["direction"] for cr in crossings) == flow, name
        for cr in crossings:
            below, above = (
                czengine._neg_count(np.linalg.eigvalsh(czengine._operator_matrix(fam, s, k)))
                for s in (cr["s"] - delta, cr["s"] + delta)
            )
            assert cr["direction"] == above - below, (name, cr["s"])
            assert cr["kernel"].shape[1] >= abs(cr["direction"]), (name, cr["s"])
            checked += 1
    assert checked >= 10


def _seed_285():
    ((fam, cz0, cz1),) = cli.seeded_flow_families(285, 1)
    return fam, cz0, cz1


@pytest.mark.parametrize("k", [16, 32])
def test_seed_285_flow_equals_rotation_index_difference(k):
    fam, _cz0, _cz1 = _seed_285()
    rot0, rot1 = (rotation_cz_sp2(solve_path(fam.path_at(s)))[1] for s in (-1.0, 1.0))
    assert (rot0, rot1) == (0, 0)
    assert spectral_flow(fam, order=k) == rot1 - rot0


def test_seed_285_crossing_form_reference_matches_rotation_index():
    # the s = -1 end crosses in the first grid cell
    _fam, cz0, cz1 = _seed_285()
    assert (cz0, cz1) == (0, 0)


@pytest.mark.parametrize("seed", [353, 949, 1134])
def test_first_cell_seeded_family_crossing_form_matches_rotation_index(seed):
    ((fam, cz0, cz1),) = cli.seeded_flow_families(seed, 1)
    rot0, rot1 = (rotation_cz_sp2(solve_path(fam.path_at(s)))[1] for s in (-1.0, 1.0))
    assert (cz0, cz1) == (rot0, rot1)


# ---------------------------------------------------------------------------
# crossing-sign relation
# ---------------------------------------------------------------------------


def test_sign_relation_on_simple_crossing():
    fam = _linear_family(np.diag([1.0, -1.0]), 2.0 * np.eye(2))
    report = verify_crossing_sign_lemma(fam)
    assert report["instances"] >= 1
    assert report["failures"] == []
    assert report["max_residual"] < 1e-4


def test_sign_relation_on_two_dimensional_kernel():
    # scaling through c = 2*pi produces a double eigenvalue crossing
    fam = _linear_family(5.0 * np.eye(2), 7.0 * np.eye(2))
    report = verify_crossing_sign_lemma(fam)
    assert report["instances"] == 2
    assert report["failures"] == []


def test_sign_relation_empty_without_crossings():
    fam = _linear_family(np.diag([1.0, -1.0]), np.diag([1.5, -0.5]))
    report = verify_crossing_sign_lemma(fam)
    assert report["instances"] == 0
    assert report["failures"] == []


# ---------------------------------------------------------------------------
# building indices
# ---------------------------------------------------------------------------


def test_building_index_single_bottom():
    assert building_index(5, [4]) == 1
    assert building_index(7, [7]) == 0


def test_building_index_needs_a_bottom():
    with pytest.raises(ValueError):
        building_index(3, [])


def test_building_index_two_bottoms():
    assert building_index(5, [1, 3]) == 2
    assert building_index(4, [1, 1]) == 3
