import os
import warnings

import numpy as np
import pytest

from flatribbon import cli
from flatribbon import ribbon as ribbon_mod
from flatribbon.config import build_curve, parse_config
from flatribbon.curves import HelixParams, make_helix
from flatribbon.energy import case_a_energy, family_energy, limit_energy
from flatribbon.errors import DegenerateMetric, InvalidParams, SingularRuling, WidthTooLarge
from flatribbon.frames import PrincipalNormalField, RotatedNormalField, RotationMinimizingField
from flatribbon.ribbon import (
    _extend_at_zero,
    _gauss_sup,
    construct_ribbon,
    flatness_residuals,
    max_regular_width,
    mu_field,
    ruling_angle,
    tessellate,
    write_obj,
)
from conftest import curve_point


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


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
    assert report.gauss_curvature < 1e-16


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


# ---------------------------------------------------------------- rows


@pytest.fixture(scope="module")
def knot_ribbon_2001(knot, torus_field):
    return construct_ribbon(knot, torus_field, 0.1, grid_size=2001)


@pytest.mark.parametrize("n_t", [None, 1001, 201])
def test_rows_take_one_nesting_test_for_mu_and_its_slope(knot_ribbon_2001, n_t, monkeypatch):
    # stride 2 and stride 10 (the spline): mu and mu' share one nested_stride
    calls = []
    original = ribbon_mod.nested_stride
    monkeypatch.setattr(ribbon_mod, "nested_stride", lambda nodes, t: calls.append(len(t)) or original(nodes, t))
    ts = knot_ribbon_2001.rows(n_t)[0]
    assert calls == [len(ts)]


@pytest.mark.parametrize("n_t", [None, 2001, 1001, 501])
def test_rows_on_nested_grids_are_views_of_the_slope_table(knot_ribbon_2001, n_t):
    rib = knot_ribbon_2001
    ts, frame, mu, mup, lam = rib.rows(n_t)
    s = 2000 // (len(ts) - 1)
    assert np.array_equal(ts, rib.ts[::s]) and frame is rib.normal.on_grid(len(ts))
    for got, table in ((mu, rib.mu.values), (mup, rib.mu.slopes)):
        assert np.shares_memory(got, table) and not got.flags.writeable
        assert np.array_equal(got, table[::s])
    assert np.array_equal(lam, rib.mu.lam[::s])  # rebuilt from the views, bitwise the table's


def test_rows_off_the_nested_grids_read_the_spline(knot_ribbon_2001):
    # 201 nodes: stride 10 of the ribbon's 2001 is not a power of two
    rib = knot_ribbon_2001
    ts, frame, mu, mup, lam = rib.rows(201)
    assert not np.shares_memory(mu, rib.mu.values)
    assert np.array_equal(mu, rib.mu(ts)) and np.array_equal(mup, rib.mu._spline(ts, 1))
    assert np.array_equal(lam, mup - (1.0 + mu**2) * frame.kappa_g)


@pytest.mark.parametrize("n_t", [None, 201, 301])
def test_rows_of_a_flat_ribbon_take_lambda_as_zero(helix_strip, n_t):
    # 201 nodes nest in the strip's 801, 301 do not
    lam = helix_strip.rows(n_t)[4]
    assert helix_strip.flat and type(lam) is float and lam == 0.0


# ---------------------------------------------------------------- width bound


# every entry point that takes a curve beside a normal field, called with the field and a curve
ENTRY_POINTS = {
    "mu_field": lambda curve, field: mu_field(curve, field, grid_size=201),
    "construct_ribbon": lambda curve, field: construct_ribbon(curve, field, 0.1, grid_size=201),
    "max_regular_width": lambda curve, field: max_regular_width(curve, field, grid_size=201),
    "limit_energy": lambda curve, field: limit_energy(curve, field, 0.1, n_t=201),
    "family_energy": lambda curve, field: family_energy(curve, field, [0.3], 0.1, n_t=201),
    "case_a_energy": lambda curve, field: case_a_energy(curve, field, 0.3, 0.1, n_t=201),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_a_curve_that_is_not_the_fields_own_is_rejected(entry):
    # tau_g = 0 on a rotation-minimizing field, so the constant-angle energies take it as well
    own = make_helix(HelixParams(1.0, 1.0))
    field = RotationMinimizingField(own)
    ENTRY_POINTS[entry](own, field)
    # once a ribbon on the grid of the first helix, meshed along the second with the first one's rulings
    with pytest.raises(InvalidParams, match="own curve"):
        ENTRY_POINTS[entry](make_helix(HelixParams(2.0, 0.5)), field)


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
    assert 0.0 < mu.max_width < np.inf
    assert mu.max_width == pytest.approx(0.9 / np.max(np.abs(mu.lam)), abs=1e-14)
    # area element positive across the safe strip at all grid nodes
    assert np.min(1.0 + mu.max_width * mu.lam) > 0.0
    assert np.min(1.0 - mu.max_width * mu.lam) > 0.0


def test_width_too_large_rejected(knot, torus_field):
    bound = max_regular_width(knot, torus_field, grid_size=1001)
    with pytest.raises(WidthTooLarge):
        construct_ribbon(knot, torus_field, 1.01 * bound, grid_size=1001)


# ---------------------------------------------------------------- meshing


def test_tessellate_two_columns_are_boundary_curves(helix_strip):
    mesh = tessellate(helix_strip, 50, 2)
    for i, t in enumerate(mesh.ts):
        base = curve_point(helix_strip.curve, t)
        x = helix_strip.ruling(t)
        w = helix_strip.w
        assert np.max(np.abs(mesh.vertices[i, 0] - (base - w * x))) < 1e-12
        assert np.max(np.abs(mesh.vertices[i, 1] - (base + w * x))) < 1e-12


@pytest.mark.parametrize("width", [1e300, 1e12])
def test_tessellate_rejects_a_width_its_vertices_cannot_carry(helix11, pn11, width):
    # lambda = 0 on the helix, so every width is regular; at 1e300 the vertices' rounding unit eps * max |coordinate|
    # (3.1e284) dwarfs the length 8.886, at 1e12 (3.1e-4) it does not
    rib = construct_ribbon(helix11, pn11, width)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if width > 1e100:
            with pytest.raises(WidthTooLarge, match="carry the curve"):
                tessellate(rib, 400, 9)
        else:
            assert np.all(np.isfinite(tessellate(rib, 400, 9).vertices))


def test_tessellate_vertices_match_parametrization(knot_ribbon):
    mesh = tessellate(knot_ribbon, 20, 5)
    for i, t in enumerate(mesh.ts):
        for j, u in enumerate(mesh.us):
            want = curve_point(knot_ribbon.curve, t) + u * knot_ribbon.ruling(t)
            assert np.max(np.abs(mesh.vertices[i, j] - want)) < 1e-12


def test_tessellate_base_points_are_the_curve_points(knot_ribbon):
    # u = 0 is an exact column of a 9-column grid, so its vertices are the curve points bit for bit
    mesh = tessellate(knot_ribbon, 400, 9)
    np.testing.assert_array_equal(mesh.vertices[:, 4], curve_point(knot_ribbon.curve, mesh.ts))


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
    R, rho = knot_ribbon.curve.spec.params.R, knot_ribbon.curve.spec.params.rho
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


def test_knot_ribbon_gauss_curvature_is_rounding(knot_ribbon):
    report = flatness_residuals(knot_ribbon, 201)
    gauss = report.rows[3]
    assert gauss.shape == report.rows[0].shape and report.gauss_curvature == np.max(gauss)
    assert report.gauss_curvature <= 1e-28  # the tangent-plane residual, ~1e-16, squared


def test_helix_strip_gauss_curvature_is_zero_to_rounding(helix_strip):
    gauss = flatness_residuals(helix_strip, 201).rows[3]
    assert np.all(gauss <= (10.0 * np.finfo(float).eps) ** 2)


@pytest.mark.parametrize("u0", [0.0, 0.3, -0.7, 2.5])
@pytest.mark.parametrize("w", [0.1, 1.0, 4.0])
def test_helicoid_gauss_curvature(u0, w):
    # sigma = gamma + u X with X = (cos t, sin t, 0) and gamma = (0, 0, t) + u0 X is the helicoid at u + u0,
    # K = -1 / (1 + (u + u0)^2)^2: its sup over |u| <= w is at the u + u0 nearest 0
    ts = np.linspace(0.0, 6.0, 13)
    zero = np.zeros_like(ts)
    x = np.stack([np.cos(ts), np.sin(ts), zero], axis=-1)
    xp = np.stack([-np.sin(ts), np.cos(ts), zero], axis=-1)
    tangent = np.stack([zero, zero, zero + 1.0], axis=-1) + u0 * xp
    n = np.cross(x, tangent)
    gauss = _gauss_sup(n, np.cross(x, xp), np.abs(np.sum(n * xp, axis=-1)), w)
    nearest = max(abs(u0) - w, 0.0)
    np.testing.assert_allclose(gauss, 1.0 / (1.0 + nearest**2) ** 2, rtol=0.0, atol=1e-12)


def finite_difference_gauss(curve, ruling, t, us, h):
    """K of sigma(t, u) = gamma(t) + u X(t) at (t, us) from the fundamental forms.

    Every derivative of sigma is a central difference of step h in t and in u.
    """
    ts = np.array([t - h, t, t + h])
    points, rulings = curve_point(curve, ts), ruling(ts)
    s = lambda i, j: points[i + 1] + (us + j * h)[:, None] * rulings[i + 1]
    st, su = (s(1, 0) - s(-1, 0)) / (2 * h), (s(0, 1) - s(0, -1)) / (2 * h)
    stt, suu = (s(1, 0) - 2 * s(0, 0) + s(-1, 0)) / h**2, (s(0, 1) - 2 * s(0, 0) + s(0, -1)) / h**2
    stu = (s(1, 1) - s(1, -1) - s(-1, 1) + s(-1, -1)) / (4 * h * h)
    normal = np.cross(st, su)
    normal /= np.linalg.norm(normal, axis=-1, keepdims=True)
    dot = lambda a, b: np.sum(a * b, axis=-1)
    E, F, G = dot(st, st), dot(st, su), dot(su, su)
    e, f, g = dot(stt, normal), dot(stu, normal), dot(suu, normal)
    return (e * g - f**2) / (E * G - F**2)


def test_non_flat_ruling_gauss_curvature_matches_finite_differences(knot_ribbon, torus_field):
    # X = H along the knot is a ruled surface with K != 0; its sup over |u| <= w on a 2001-point u grid, with
    # the differencing error falling as h^2 and below 1e-6 relative at h = 5e-4
    ruling = lambda t: torus_field.sample(t).H
    report = flatness_residuals(knot_ribbon, 201, ruling=ruling)
    ts, gauss = report.rows[0], report.rows[3]
    assert report.gauss_curvature > 0.1
    us = np.linspace(-knot_ribbon.w, knot_ribbon.w, 2001)
    for i in (17, 60, 133):
        errors = [
            abs(np.max(np.abs(finite_difference_gauss(knot_ribbon.curve, ruling, ts[i], us, h))) - gauss[i])
            for h in (2e-3, 1e-3, 5e-4)
        ]
        assert errors[1] <= 0.5 * errors[0] and errors[2] <= 0.5 * errors[1]
        assert errors[2] <= 1e-6 * gauss[i]


def test_tangent_ruling_raises_degenerate_metric(knot, torus_field):
    # a ruling along the tangent spans no surface: EG - F^2 = 0 at u = 0
    ribbon = construct_ribbon(knot, torus_field, 0.1, grid_size=201)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateMetric):
            flatness_residuals(ribbon, 101, ruling=lambda t: knot.derivative(t, 1))
        # at w = 1e-300 the surface is regular, so its Gauss curvature is finite
        tiny = construct_ribbon(knot, torus_field, 1e-300, grid_size=201)
        assert np.isfinite(flatness_residuals(tiny, 101).gauss_curvature)


@pytest.mark.parametrize("config", ["torus_knot.cfg", "samples_rmf.cfg"])
def test_examples_area_element_is_one_plus_u_lambda_squared(monkeypatch, config):
    # on the ribbon's own ruling EG - F^2 = |n + u m|^2, n = X x T, m = X x X', is (1 + u lambda)^2, so the
    # Gauss column is the tangent-plane residual squared over (1 - w |lambda|)^4
    monkeypatch.chdir(ROOT)  # the samples config names its csv relative to the repo root
    cfg = parse_config(os.path.join("examples", config))
    curve = build_curve(cfg)
    rib = cli._ribbon(cfg, curve, cli._field(cfg, curve))
    ts, frame, mu, mup, lam = rib.rows(201)
    x = rib.ruling(ts, frame)
    xp = mup[:, None] * frame.T + mu[:, None] * frame.Tp + frame.Hp
    n, m = np.cross(x, frame.T), np.cross(x, xp)
    for u in np.linspace(-rib.w, rib.w, 9):
        det = np.sum((n + u * m) ** 2, axis=-1)
        np.testing.assert_allclose(det, (1.0 + u * lam) ** 2, rtol=0.0, atol=1e-14)
    report = flatness_residuals(rib, 201)
    np.testing.assert_allclose(report.rows[3], report.rows[2] ** 2 / (1.0 - rib.w * np.abs(lam)) ** 4, rtol=1e-13)


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
