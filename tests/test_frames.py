import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatribbon.angleivp import integrated_torsion
from flatribbon.curves import HelixParams, TorusKnotParams, make_helix, make_torus_knot
from flatribbon.errors import InvalidParams, NonOrthogonalNormal, VanishingCurvature
from flatribbon.frames import (
    DarbouxScalars,
    NormalField,
    PrincipalNormalField,
    RotatedNormalField,
    RotationMinimizingField,
    TorusNormalField,
    isometric_partner_angle,
    rotate,
    sampled_scalars,
)
from flatribbon.numerics import central_difference
from test_build_path import samples_rmf_curve

finite = st.floats(-10.0, 10.0, allow_nan=False)


# ---------------------------------------------------------------- scalars


def test_helix_principal_normal_scalars(helix11, pn11):
    for t in (0.0, 1.0, helix11.length / 3):
        sc = pn11.scalars(t)
        assert sc.kappa_g == pytest.approx(0.0, abs=1e-10)
        assert sc.kappa_n == pytest.approx(0.5, abs=1e-10)
        assert sc.tau_g == pytest.approx(0.5, abs=1e-10)


def test_circle_inward_normal_scalars(circle):
    sc = PrincipalNormalField(circle).scalars(1.0)
    assert sc.kappa_g == pytest.approx(0.0, abs=1e-12)
    assert sc.kappa_n == pytest.approx(1.0, abs=1e-12)
    assert sc.tau_g == pytest.approx(0.0, abs=1e-12)


def test_torus_normal_scalars_stable_under_grid_doubling():
    vals = []
    for n in (4001, 8001):
        k = make_torus_knot(TorusKnotParams(grid_size=n))
        sc = TorusNormalField(k).scalars(0.0)
        vals.append((sc.kappa_g, sc.kappa_n, sc.tau_g))
    assert np.max(np.abs(np.array(vals[0]) - np.array(vals[1]))) < 1e-6


def test_pythagoras_on_torus_knot(knot, torus_field):
    principal = PrincipalNormalField(knot)
    for t in knot.grid(51):
        sc = torus_field.scalars(t)
        kappa = principal.scalars(t).kappa_n
        assert sc.kappa_g**2 + sc.kappa_n**2 == pytest.approx(kappa**2, abs=1e-8)


def test_non_orthogonal_normal_rejected(helix11):
    class Tilted(NormalField):
        def normal(self, t, jet):
            return np.array([0.0, 1.0, 0.0]), np.zeros(3)  # not orthogonal to the helix tangent

    with pytest.raises(NonOrthogonalNormal):
        Tilted(helix11).scalars(0.0)


# ---------------------------------------------------------------- frames


def test_frame_orthonormal_and_right_handed(knot, torus_field):
    for t in knot.grid(51):
        fr = torus_field.sample(t)
        m = np.array([fr.T, fr.H, fr.N])
        assert np.max(np.abs(m @ m.T - np.eye(3))) <= 1e-10
        assert np.dot(np.cross(fr.T, fr.H), fr.N) == pytest.approx(1.0, abs=1e-10)


def test_helix_normal_derivative_relation(helix11, pn11):
    # N' = -kappa T - tau H for the principal normal of a helix
    kappa = tau = 0.5
    for t in (0.0, 2.0):
        fr = pn11.sample(t)
        assert np.max(np.abs(fr.Np - (-kappa * fr.T - tau * fr.H))) < 1e-10


def test_frame_derivative_matches_finite_differences(knot, torus_field):
    h = 1e-3
    for t in (1.0, 7.0):
        fr = torus_field.sample(t)
        for pick, want in (
            (lambda z: torus_field.sample(z).T, fr.Tp),
            (lambda z: torus_field.sample(z).H, fr.Hp),
            (lambda z: torus_field.sample(z).N, fr.Np),
        ):
            got = central_difference(pick, t, 1, h)
            assert np.max(np.abs(got - want)) < 1e-8


# ---------------------------------------------------------------- rotations


def test_rotate_identity_and_quarter_turn():
    s = DarbouxScalars(0.7, -1.2, 0.4)
    r0 = rotate(s, 0.0, 0.0)
    assert (r0.kappa_g, r0.kappa_n, r0.tau_g) == (s.kappa_g, s.kappa_n, s.tau_g)
    r = rotate(s, np.pi / 2, 0.0)
    assert r.kappa_g == pytest.approx(s.kappa_n, abs=1e-15)
    assert r.kappa_n == pytest.approx(-s.kappa_g, abs=1e-15)
    assert r.tau_g == pytest.approx(s.tau_g, abs=1e-15)


@given(finite, finite, finite, finite, finite, finite, finite)
@settings(deadline=None, max_examples=50)
def test_rotate_group_action(kg, kn, tg, t1, t2, d1, d2):
    s = DarbouxScalars(kg, kn, tg)
    left = rotate(rotate(s, t1, d1), t2, d2)
    right = rotate(s, t1 + t2, d1 + d2)
    assert abs(left.kappa_g - right.kappa_g) <= 1e-12 * max(1.0, abs(kg), abs(kn))
    assert abs(left.kappa_n - right.kappa_n) <= 1e-12 * max(1.0, abs(kg), abs(kn))
    assert abs(left.tau_g - right.tau_g) <= 1e-12 * max(1.0, abs(tg), abs(d1), abs(d2))


@given(finite, finite, finite, st.floats(0.0, 2 * np.pi))
@settings(deadline=None, max_examples=50)
def test_rotate_preserves_curvature_norm(kg, kn, tg, theta):
    s = DarbouxScalars(kg, kn, tg)
    r = rotate(s, theta)
    norm = kg * kg + kn * kn
    assert abs(r.kappa_g**2 + r.kappa_n**2 - norm) <= 1e-12 * max(1.0, norm)


def test_rotate_field_constant_angles(pn11):
    same = RotatedNormalField(pn11, 0.0)
    flipped = RotatedNormalField(pn11, np.pi)
    for t in (0.0, 1.5):
        assert np.max(np.abs(same.sample(t).N - pn11.sample(t).N)) < 1e-15
        assert np.max(np.abs(flipped.sample(t).N + pn11.sample(t).N)) < 1e-15


def test_rotated_field_scalars_match_scalar_rotation(helix11, pn11, rng):
    theta = lambda t: 0.3 * np.sin(t)
    theta_prime = lambda t: 0.3 * np.cos(t)
    field = RotatedNormalField(pn11, theta, theta_prime)
    for t in rng.uniform(0.0, helix11.length, 100):
        direct = field.scalars(t)
        via_rotation = rotate(pn11.scalars(t), theta(t), theta_prime(t))
        assert abs(direct.kappa_g - via_rotation.kappa_g) < 1e-8
        assert abs(direct.kappa_n - via_rotation.kappa_n) < 1e-8
        assert abs(direct.tau_g - via_rotation.tau_g) < 1e-8


def test_rotated_field_needs_theta_prime_with_a_callable_theta(pn11):
    with pytest.raises(InvalidParams, match="theta_prime"):
        RotatedNormalField(pn11, lambda t: 0.3 * np.sin(t))


# ------------------------------------------------- rotated principal normal


def test_principal_rotation_zero_is_principal(helix11, pn11):
    field = RotatedNormalField(PrincipalNormalField(helix11), 0.0)
    for t in (0.0, 2.0):
        assert np.max(np.abs(field.sample(t).N - pn11.sample(t).N)) < 1e-12


def test_principal_rotation_helix_scalars(helix11):
    field = RotatedNormalField(PrincipalNormalField(helix11), np.pi / 3)
    sc = field.scalars(1.0)
    assert sc.kappa_n == pytest.approx(0.25, abs=1e-10)  # (1/2) cos(pi/3)
    assert sc.tau_g == pytest.approx(0.5, abs=1e-10)


def test_principal_rotation_small_normal_curvature(helix11):
    field = RotatedNormalField(PrincipalNormalField(helix11), np.pi / 2 - 1e-3)
    kappa = 0.5
    for t in (0.0, 3.0):
        assert abs(field.scalars(t).kappa_n) < kappa * 1.1e-3


def test_principal_rotation_keeps_frenet_torsion(helix11, rng):
    field = RotatedNormalField(PrincipalNormalField(helix11), 1.1)
    for t in rng.uniform(0.0, helix11.length, 100):
        assert abs(field.scalars(t).tau_g - 0.5) <= 1e-8


def test_principal_rotation_needs_curvature(circle):
    # a straight line has kappa = 0; use a degenerate spec to trigger the guard
    from test_grid_cache import straight_line

    field = RotatedNormalField(PrincipalNormalField(straight_line()), 0.3)
    with pytest.raises(VanishingCurvature):
        field.on_grid(201)


def test_angle_maps_must_broadcast_to_t(pn11):
    ts = np.linspace(0.0, 1.0, 5)
    # a constant theta' map broadcasts; helix11 has tau = 1/2, so tau_g = 1/2 - 1/2
    field = RotatedNormalField(pn11, lambda t: -0.5 * t, lambda t: -0.5)
    np.testing.assert_allclose(field.sample(ts).tau_g, 0.0, atol=1e-12)
    with pytest.raises(InvalidParams):
        RotatedNormalField(pn11, lambda t: np.zeros(3)).sample(ts)
    with pytest.raises(InvalidParams):
        RotatedNormalField(pn11, lambda t: 0.1 * t, lambda t: np.zeros(3)).sample(ts)


# ------------------------------------------------------------ reference field


def test_rotation_minimizing_field_has_zero_geodesic_torsion(helix11):
    rmf = RotationMinimizingField(helix11)
    for t in helix11.grid(41):
        sc = rmf.scalars(t)
        assert abs(sc.tau_g) < 1e-6
        assert abs(np.dot(rmf.sample(t).N, helix11.derivative(t, 1))) < 1e-8


def test_rotation_minimizing_field_seeds_a_scaled_knot_alike(knot):
    # the principal normal seeds the field wherever kappa L clears the floor, whatever the scale
    scaled = make_torus_knot(TorusKnotParams(2e10, 1e10))
    ts = knot.grid(51)
    got = RotationMinimizingField(scaled).sample(ts * 1e10).N
    assert np.max(np.abs(got - RotationMinimizingField(knot).sample(ts).N)) <= 1e-9


def frenet_angle(field, ts):
    """The angle beta of the field's normal in the Frenet frame: N = cos(beta) P + sin(beta) B."""
    frenet = PrincipalNormalField(field.curve).sample(ts)  # P = N and B = -H
    N = field.sample(ts).N
    return np.arctan2(-np.vecdot(N, frenet.H), np.vecdot(N, frenet.N))


def mod_two_pi(angle):
    return np.remainder(angle + np.pi, 2.0 * np.pi) - np.pi


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0)])
def test_rotation_minimizing_field_turns_against_the_frenet_frame_on_helices(a, b):
    # N' = -<T', N> T makes beta' = -tau, and the seed is the principal normal, so beta = -tau t
    helix = make_helix(HelixParams(a, b))
    ts = helix.grid(401)
    beta = frenet_angle(RotationMinimizingField(helix), ts)
    assert np.max(np.abs(mod_two_pi(beta + b / (a * a + b * b) * ts))) <= 1e-12


def test_rotation_minimizing_field_turns_by_the_integrated_torsion_on_the_knot(knot):
    ts = knot.grid(401)
    beta = frenet_angle(RotationMinimizingField(knot), ts)
    assert np.max(np.abs(mod_two_pi(beta + integrated_torsion(knot)(ts)))) <= 1e-8


@pytest.mark.parametrize("name", ["torus_knot", "samples_rmf_cfg"])
def test_rotation_minimizing_node_normals_are_unit_and_normal(name, knot, monkeypatch):
    curve = knot if name == "torus_knot" else samples_rmf_curve(monkeypatch)
    ts, x = curve.near_grid(2001)  # the field's nodes
    T = curve.raw_jet(x)[2]
    axes = np.argmin(np.abs(T), axis=1)  # the axis each node's normal-plane frame is built from
    assert np.count_nonzero(np.diff(axes)) >= 10
    N = RotationMinimizingField(curve)._normals(ts)
    assert np.max(np.abs(np.linalg.norm(N, axis=1) - 1.0)) <= 1e-15
    assert np.max(np.abs(np.vecdot(N, T))) <= 1e-15


def test_sampled_scalars_matches_direct_evaluation(knot, torus_field, rng):
    fn = sampled_scalars(torus_field, 2001)
    for t in rng.uniform(0.0, knot.length, 20):
        assert fn(t) == torus_field.scalars(t)


def test_sampled_scalars_on_a_nested_grid_of_other_size(helix11, pn11):
    # 803 nodes nest in 1605 by stride 2, but on_grid(803) would be an 805-node table
    fn = sampled_scalars(pn11, 1605)
    ts = helix11.grid(1605)[::2]
    table = pn11.on_grid(1605)
    got = fn(ts)
    for name in ("kappa_g", "kappa_n", "tau_g"):
        assert np.array_equal(getattr(got, name), getattr(table, name)[::2])


def test_sampled_hp_is_the_frame_cross_products(knot, torus_field, helix11, pn11, rng):
    # every sample carries H' = N' x T + N x T', bitwise, which rotated fields and rulings read
    from flatribbon.angleivp import solved_rotation_field

    solved = solved_rotation_field(torus_field, 0.7, grid_size=200, scalars_grid=201)[0]
    cases = [
        (pn11, helix11.grid(101)),
        (torus_field, knot.grid(101)),
        (RotationMinimizingField(helix11), helix11.grid(101)),
        (RotatedNormalField(pn11, 0.4), helix11.grid(101)),
        (RotatedNormalField(torus_field, lambda t: 0.3 * np.sin(t), lambda t: 0.3 * np.cos(t)), knot.grid(101)),
        (solved, knot.grid(201)),  # the solution's nodes: theta read off its table
        (solved, np.sort(rng.uniform(0.0, knot.length, 50))),  # off them: its spline
    ]
    for field, ts in cases:
        fr = field.sample(ts)
        want = np.cross(fr.Np, fr.T) + np.cross(fr.N, fr.Tp)
        assert np.array_equal(fr.Hp, want), type(field).__name__


# ------------------------------------------------------------ isometric pairs


def test_partner_angle_special_cases():
    assert isometric_partner_angle(DarbouxScalars(0.0, 1.0, 0.0)) == pytest.approx(np.pi)
    s = DarbouxScalars(0.8, 0.8, 0.1)
    assert isometric_partner_angle(s) == pytest.approx(np.pi / 2)
    r = rotate(s, np.pi / 2)
    assert r.kappa_g == pytest.approx(s.kappa_g, abs=1e-15)


def test_partner_angle_preserves_geodesic_curvature(rng):
    for _ in range(100):
        kg, kn = rng.normal(size=2)
        if np.hypot(kg, kn) < 1e-6:
            continue
        s = DarbouxScalars(kg, kn, rng.normal())
        partner = rotate(s, isometric_partner_angle(s))
        assert abs(partner.kappa_g - s.kappa_g) <= 1e-12


def test_partner_angle_rejects_zero_curvature():
    with pytest.raises(VanishingCurvature):
        isometric_partner_angle(DarbouxScalars(0.0, 0.0, 0.3))


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_partner_angle_is_free_of_the_scale(scale):
    # atan2 fixes the angle at any scale; an absolute floor of 1e-9 once raised at scale 1e12
    s = DarbouxScalars(0.3 / scale, 0.2 / scale, 0.1 / scale)
    assert isometric_partner_angle(s) == pytest.approx(np.pi - 2.0 * np.arctan2(0.3, 0.2), rel=1e-15)


@pytest.mark.parametrize("kg,kn", [(np.nan, 0.2), (0.3, np.nan), (np.inf, 0.2), (0.3, -np.inf)])
def test_partner_angle_rejects_non_finite_curvature(kg, kn):
    with pytest.raises(VanishingCurvature):
        isometric_partner_angle(DarbouxScalars(kg, kn, 0.1))
