import warnings

import numpy as np
import pytest

from flatribbon import ribbon as ribbon_mod
from flatribbon.errors import DegenerateMetric, SingularRuling, WidthTooLarge
from flatribbon.frames import PrincipalNormalField, RotatedNormalField, TorusNormalField
from flatribbon.ribbon import (
    FlatRibbon,
    _extend_at_zero,
    angle_defect_gauss,
    construct_ribbon,
    flatness_residuals,
    max_regular_width,
    mu_field,
    ruling_angle,
    tessellate,
    write_obj,
)


@pytest.fixture(scope="module")
def helix_strip(helix11, pn11):
    return construct_ribbon(helix11, pn11, 0.1, grid_size=801)


@pytest.fixture(scope="module")
def knot_ribbon(knot, torus_field):
    return construct_ribbon(knot, torus_field, 0.1, grid_size=1001)


# ---------------------------------------------------------------- ruling slope


def test_helix_ruling_slope_is_constant(helix11, pn11):
    mu = mu_field(helix11, pn11, grid_size=401)
    for t in np.linspace(0.0, helix11.length, 17):
        assert mu(t) == pytest.approx(-1.0, abs=1e-9)  # -b/a


def test_zero_geodesic_torsion_gives_orthogonal_ruling(circle):
    # inward circle normal rotated by a constant: tau_g stays 0, mu stays 0
    field = RotatedNormalField(PrincipalNormalField(circle), np.pi / 4)
    mu = mu_field(circle, field, grid_size=401)
    assert np.max(np.abs(mu.values)) < 1e-12
    rib = construct_ribbon(circle, field, 0.05, grid_size=401)
    assert ruling_angle(rib, 1.0) == pytest.approx(np.pi / 2, abs=1e-12)


def test_ruling_slope_extends_through_isolated_zeros(helix11, pn11):
    # rotated field with kappa_n = kappa cos(t/2): isolated zeros, tau_g = 0
    field = RotatedNormalField(pn11, lambda t: -0.5 * t, lambda t: -0.5)
    mu = mu_field(helix11, field, grid_size=2001)
    assert np.max(np.abs(mu.values)) < 1e-8


def test_singular_ruling_detected(helix11):
    # kappa_n identically zero while tau_g = 1/2: no ruling exists
    with pytest.raises(SingularRuling):
        mu_field(helix11, RotatedNormalField(PrincipalNormalField(helix11), np.pi / 2), grid_size=401)


def bump_field(helix):
    """Principal normal rotated by pi/2 + 0.5 exp(-((t - L/2)/0.3)^2), with the analytic theta'."""
    c = helix.length / 2

    def theta(t):
        return np.pi / 2 + 0.5 * np.exp(-(((t - c) / 0.3) ** 2))

    def theta_prime(t):
        return -(t - c) / 0.09 * np.exp(-(((t - c) / 0.3) ** 2))

    return RotatedNormalField(PrincipalNormalField(helix), theta, theta_prime)


def test_lhopital_extension_rejects_a_nonvanishing_geodesic_torsion(helix11):
    # kappa_n ~ 0 away from the bump, at most of the 401 nodes, while tau_g = 1/2 there:
    # too few good nodes for the spline, so every small node goes through the L'Hopital extension
    with pytest.raises(SingularRuling, match="high order at t=0 "):
        mu_field(helix11, bump_field(helix11), grid_size=401)


def test_lhopital_extension_recovers_the_slope_at_an_isolated_zero(pn11):
    # theta = pi/2 - (t - c)/2 + a (t - c)^2: kappa_n = kappa sin((t - c)/2 - a (t - c)^2) and
    # tau_g = 2 a (t - c) vanish together at c, where -tau_g'/kappa_n' = -2a / (kappa/2) = -8a
    a, c = 0.1, 1.0
    theta = lambda t: np.pi / 2 - 0.5 * (t - c) + a * (t - c) ** 2
    field = RotatedNormalField(pn11, theta, lambda t: -0.5 + 2 * a * (t - c))
    np.testing.assert_allclose(_extend_at_zero(field, np.array([c, c]), 0.5, 0.5), -8 * a, rtol=1e-9)


def test_lhopital_extension_rejects_torsion_at_a_simple_zero(pn11):
    # theta = pi/2 - 0.4 (t - c): kappa_n has a simple zero at c, where tau_g = 1/2 - 0.4 does not vanish
    c = 1.0
    field = RotatedNormalField(pn11, lambda t: np.pi / 2 - 0.4 * (t - c), lambda t: -0.4)
    with pytest.raises(SingularRuling, match="lower-order"):
        _extend_at_zero(field, np.array([c]), 0.5, 0.5)


def test_identically_flat_field_gives_planar_strip(circle):
    # kappa_n and tau_g both vanish: the strip degenerates to a plane, mu = 0
    field = RotatedNormalField(PrincipalNormalField(circle), np.pi / 2)
    mu = mu_field(circle, field, grid_size=401)
    assert np.max(np.abs(mu.values)) == 0.0


# ---------------------------------------------------------------- construction


def test_helix_strip_is_flat(helix_strip):
    report = flatness_residuals(helix_strip, 201)
    assert report.ruling_in_plane < 1e-8
    assert report.tangent_plane < 1e-8
    assert report.second_form_f < 1e-8


def test_knot_ribbon_is_flat(knot_ribbon):
    report = flatness_residuals(knot_ribbon, 201)
    assert report.ruling_in_plane < 1e-8
    assert report.tangent_plane < 1e-8


def test_ruling_angle_helix(helix_strip):
    # mu = -1 everywhere, so the ruling makes a 3*pi/4 angle with the tangent
    assert ruling_angle(helix_strip, 1.0) == pytest.approx(3 * np.pi / 4, abs=1e-9)


def test_ruling_angle_matches_measured_angle(knot_ribbon, rng):
    for t in rng.uniform(0.0, knot_ribbon.curve.length, 100):
        x = knot_ribbon.ruling(t)
        tangent = knot_ribbon.curve.derivative(t, 1)
        measured = np.arctan2(np.linalg.norm(np.cross(tangent, x)), float(np.dot(tangent, x)))
        alpha = ruling_angle(knot_ribbon, t)
        assert 0.0 < alpha < np.pi
        assert measured == pytest.approx(alpha, abs=1e-10)


def test_ruling_projection_has_unit_normal_component(helix_strip):
    # projecting X onto the plane normal to the tangent leaves H, of length 1
    for t in helix_strip.curve.grid(41):
        x = helix_strip.ruling(t)
        tangent = helix_strip.curve.derivative(t, 1)
        proj = x - float(np.dot(x, tangent)) * tangent
        assert np.linalg.norm(proj) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------- width bound


def test_helix_rectifying_width_unbounded(helix11, pn11):
    assert max_regular_width(helix11, pn11, grid_size=401) == np.inf


def test_width_bound_constant_rotation(helix11):
    # constant rotation by pi/4: kappa_g = sqrt(2)/4, mu' = 0, so
    # |lambda| = (1 + mu^2) kappa_g = 3 sqrt(2)/4 and w_max = 0.9 / |lambda|
    field = RotatedNormalField(PrincipalNormalField(helix11), np.pi / 4)
    want = 0.9 / (3.0 * np.sqrt(2.0) / 4.0)
    assert max_regular_width(helix11, field, grid_size=801) == pytest.approx(want, abs=1e-10)


def test_width_bound_safety_factor(knot, torus_field):
    mu = mu_field(knot, torus_field, grid_size=1001)
    rib = FlatRibbon(knot, torus_field, 0.0, mu)
    assert 0.0 < rib.max_width < np.inf
    assert rib.max_width == pytest.approx(0.9 / np.max(np.abs(rib.lam)), abs=1e-14)
    # area element positive across the safe strip at all grid nodes
    assert np.min(1.0 + rib.max_width * rib.lam) > 0.0
    assert np.min(1.0 - rib.max_width * rib.lam) > 0.0


def test_width_too_large_rejected(knot, torus_field):
    bound = max_regular_width(knot, torus_field, grid_size=1001)
    with pytest.raises(WidthTooLarge):
        construct_ribbon(knot, torus_field, 1.01 * bound, grid_size=1001)


# ---------------------------------------------------------------- meshing


def test_tessellate_two_columns_are_boundary_curves(helix_strip):
    mesh = tessellate(helix_strip, 50, 2)
    for i, t in enumerate(mesh.ts):
        base = helix_strip.curve.point(t)
        x = helix_strip.ruling(t)
        w = helix_strip.w
        assert np.max(np.abs(mesh.vertices[i, 0] - (base - w * x))) < 1e-12
        assert np.max(np.abs(mesh.vertices[i, 1] - (base + w * x))) < 1e-12


def test_tessellate_vertices_match_parametrization(knot_ribbon):
    mesh = tessellate(knot_ribbon, 20, 5)
    for i, t in enumerate(mesh.ts):
        for j, u in enumerate(mesh.us):
            want = knot_ribbon.point(t, u)
            assert np.max(np.abs(mesh.vertices[i, j] - want)) < 1e-12


def test_tessellate_base_points_are_the_curve_points(knot_ribbon):
    # u = 0 is an exact column of a 9-column grid, so its vertices are the curve points bit for bit
    mesh = tessellate(knot_ribbon, 400, 9)
    np.testing.assert_array_equal(mesh.vertices[:, 4], knot_ribbon.curve.point(mesh.ts))


def test_tessellate_normals_constant_along_rulings(knot_ribbon):
    mesh = tessellate(knot_ribbon, 20, 5)
    assert mesh.normals.shape == (20, 3)
    for i, t in enumerate(mesh.ts):
        assert np.max(np.abs(mesh.normals[i] - knot_ribbon.normal.sample(t).N)) < 1e-12


def test_tessellate_rejects_degenerate_grids(helix_strip):
    with pytest.raises(ValueError):
        tessellate(helix_strip, 1, 5)
    with pytest.raises(ValueError):
        tessellate(helix_strip, 5, 1)


def test_knot_mesh_stays_near_torus(knot_ribbon):
    # the ribbon is tangent to the torus, so vertices stay within w*|X| of it
    R, rho = knot_ribbon.curve.params.R, knot_ribbon.curve.params.rho
    sup_x = max(np.linalg.norm(knot_ribbon.ruling(t)) for t in knot_ribbon.curve.grid(41))
    mesh = tessellate(knot_ribbon, 100, 7)
    for i in range(mesh.vertices.shape[0]):
        for j in range(mesh.vertices.shape[1]):
            x, y, z = mesh.vertices[i, j]
            dist = abs(np.hypot(np.hypot(x, y) - R, z) - rho)
            assert dist <= knot_ribbon.w * sup_x + 1e-9


def test_obj_export_is_valid(tmp_path, knot_ribbon):
    mesh = tessellate(knot_ribbon, 12, 4)
    path = tmp_path / "ribbon.obj"
    write_obj(mesh, path)
    verts, norms, faces = [], [], []
    for line in path.read_text().splitlines():
        kind, *rest = line.split()
        if kind == "v":
            verts.append([float(x) for x in rest])
        elif kind == "vn":
            norms.append([float(x) for x in rest])
        elif kind == "f":
            faces.append(rest)
    assert len(verts) == 12 * 4
    assert len(norms) == 12
    assert len(faces) == 2 * 11 * 3
    assert np.all(np.isfinite(np.array(verts)))
    for face in faces:
        assert len(face) == 3  # triangles only
        for token in face:
            vi, ni = token.split("//")
            assert 1 <= int(vi) <= len(verts)
            assert 1 <= int(ni) <= len(norms)


# ---------------------------------------------------------------- flatness


def test_gauss_curvature_small_on_fine_mesh(knot_ribbon):
    assert angle_defect_gauss(tessellate(knot_ribbon, 800, 20)) <= 1e-4


def test_gauss_estimate_decreases_under_refinement(knot_ribbon):
    coarse = angle_defect_gauss(tessellate(knot_ribbon, 200, 6))
    fine = angle_defect_gauss(tessellate(knot_ribbon, 400, 11))
    assert fine <= 0.5 * coarse


def test_zero_area_mesh_raises_degenerate_metric(knot):
    # at w = 1e-300 the vertices along each ruling coincide, so every vertex ring has zero area
    ribbon = construct_ribbon(knot, TorusNormalField(knot), 1e-300, grid_size=201)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateMetric):
            angle_defect_gauss(tessellate(ribbon, 200, 8))


def test_flatness_residuals_builds_no_mesh(monkeypatch, knot_ribbon):
    def refuse(*args):
        raise AssertionError("flatness_residuals tessellated the ribbon")

    monkeypatch.setattr(ribbon_mod, "tessellate", refuse)
    report = flatness_residuals(knot_ribbon, 201)
    assert max(report.ruling_in_plane, report.tangent_plane) <= 1e-8


def test_perturbed_ruling_detected(helix_strip):
    bad = lambda t: helix_strip.ruling(t) + 0.01 * helix_strip.normal.sample(t).N
    report = flatness_residuals(helix_strip, 101, ruling=bad)
    assert report.ruling_in_plane == pytest.approx(0.01, rel=1e-6)
    assert report.ruling_in_plane > 1e-8  # the flatness check must fail
