"""One frame table and one ruling slope per (field, node count).

``NormalField.on_grid(n)`` samples the field on ``curve.grid(n)`` once and
keeps the checked table, read-only, for the field's lifetime; a rotated
field builds its table from its base field's, and its vectors only on their
first read.  A coarser grid of m nodes whose nodes are every s-th node of a
kept M-node table, M - 1 = s (m - 1) with s a power of two, is read from
that table as a strided view instead of being sampled again; stride 10 (2001 over 201 nodes) does not nest bitwise
for most lengths, so it samples.  ``mu_field`` keeps its slope table on the
field the same way, and serves its nodes, and their spline slopes, as views.
Each test builds fresh fields, so no table from another test is reused.
"""

import gc
import os
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatribbon import cli, frames
from flatribbon.angleivp import solved_rotation_field
from flatribbon.config import build_curve, parse_config, set_value
from flatribbon.curves import ArcLengthCurve, CurveSpec, HelixParams, make_helix
from flatribbon.energy import bending_energy_closed, bending_energy_quadrature, case_a_energy, limit_energy
from flatribbon.errors import NonOrthogonalNormal, VanishingCurvature
from flatribbon.frames import (
    NormalField,
    PrincipalNormalField,
    RotatedNormalField,
    RotationMinimizingField,
    TorusNormalField,
    sampled_scalars,
)
from flatribbon.numerics import cross, spline, spline_slopes
from flatribbon.ribbon import construct_ribbon, flatness_residuals, max_regular_width, mu_field, tessellate
from test_sampled import sample_curve

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
EXAMPLE = os.path.join(ROOT, "examples", "torus_knot.cfg")


@pytest.fixture
def jet_calls(monkeypatch):
    """The shape of t at every ``ArcLengthCurve.jet`` call from here on."""
    calls = []
    original = ArcLengthCurve.jet

    def counted(self, t, *args):
        calls.append(np.shape(t))
        return original(self, t, *args)

    monkeypatch.setattr(ArcLengthCurve, "jet", counted)
    return calls


def test_energy_command_samples_each_grid_once(tmp_path, jet_calls):
    # width bound, ribbon, closed form, quadrature and limit all on 2001 nodes
    assert cli.main(["energy", "--config", EXAMPLE, "--out", str(tmp_path)]) == 0
    assert jet_calls == [(2001,)]


@pytest.mark.parametrize("grid,nodes", [(100, 101), (500, 501)])
def test_energy_command_samples_only_the_ribbon_grid(tmp_path, jet_calls, grid, nodes):
    # below 2000 the three energies read the ribbon's own grid, not a second one of 2001 nodes
    assert cli.main(["energy", "--config", EXAMPLE, "--out", str(tmp_path), "--grid", str(grid)]) == 0
    assert jet_calls == [(nodes,)]


@pytest.mark.parametrize("name", ["torus_knot.cfg", "samples_rmf.cfg"])
def test_build_inverts_the_mesh_grid_once(name, tmp_path, monkeypatch):
    # tessellate takes the base points from its frame sample's one arc-length inversion
    calls = []
    original = ArcLengthCurve.raw_parameter

    def counted(self, t):
        calls.append(np.shape(t))
        return original(self, t)

    monkeypatch.setattr(ArcLengthCurve, "raw_parameter", counted)
    monkeypatch.chdir(ROOT)  # the samples config names its csv relative to the repo root
    assert cli.main(["build", "--config", os.path.join("examples", name), "--out", str(tmp_path)]) == 0
    assert calls.count((400,)) == 1  # the 400 x 9 mesh


def test_case_a_energy_family_samples_once(helix11, jet_calls):
    field = RotatedNormalField(PrincipalNormalField(helix11), lambda t: -0.5 * t, lambda t: -0.5)
    for q in np.linspace(0.0, 2 * np.pi, 4096, endpoint=False):
        case_a_energy(helix11, field, q, 0.1, n_t=2001)
    assert jet_calls == [(2001,)]


def test_rotated_fields_share_the_base_sample(knot, jet_calls):
    base = TorusNormalField(knot)
    fields = [RotatedNormalField(base, 0.3), RotatedNormalField(base, lambda t: 0.1 * t, lambda t: 0.1)]
    for field in fields:
        field.on_grid(201)
        mu_field(knot, field, grid_size=401)
    assert jet_calls == [(201,), (401,)]


def test_key_is_the_odd_node_count(knot):
    field = TorusNormalField(knot)
    assert field.on_grid(2000) is field.on_grid(2001)
    assert mu_field(knot, field, grid_size=200) is mu_field(knot, field, grid_size=201)
    assert mu_field(knot, field, grid_size=201).frame is field.on_grid(201)
    scalars = sampled_scalars(field, 400)(knot.grid(401))
    assert np.shares_memory(scalars.kappa_g, field.on_grid(401).kappa_g)


def test_limit_energy_builds_no_slope_spline(helix11):
    # the limit energy reads only the slope table, so its spline is never built
    field = RotatedNormalField(PrincipalNormalField(helix11), 0.3)
    limit_energy(helix11, field, 0.1, n_t=201)
    mu = mu_field(helix11, field, grid_size=201)
    assert "_spline" not in vars(mu)
    mu.with_slope(0.5)
    assert "_spline" in vars(mu)


@pytest.mark.parametrize("name", ["torus_knot.cfg", "samples_rmf.cfg"])
def test_width_bound_and_ribbon_take_one_mu_derivative(name, monkeypatch):
    # lambda, flat and the width bound are the slope table's, so the ribbon after the bound solves mu' no more
    calls = []

    def counted(x, y):
        calls.append(np.shape(x))
        return spline_slopes(x, y)

    monkeypatch.setattr("flatribbon.ribbon.spline_slopes", counted)
    monkeypatch.chdir(ROOT)  # the samples config names its csv relative to the repo root
    cfg = parse_config(os.path.join("examples", name))
    curve = build_curve(cfg)
    rib = cli._ribbon(cfg, curve, cli._field(cfg, curve))
    assert calls == [rib.ts.shape]
    assert not rib.mu.lam.flags.writeable
    assert max_regular_width(curve, rib.normal, grid_size=len(rib.ts)) == rib.mu.max_width
    assert calls == [rib.ts.shape]


@pytest.mark.parametrize("n", [2001, 1001, 501])
def test_mu_node_reads_are_read_only_views_of_the_slope_table(knot, n):
    # on every s-th node a read is a view of values or slopes, bitwise the spline's but perhaps at t = L
    mu = mu_field(knot, TorusNormalField(knot), grid_size=2001)
    ts = knot.grid(n)
    values, slopes = mu.with_slope(ts)
    assert np.array_equal(mu(ts), values) and "_spline" not in vars(mu)
    assert np.shares_memory(values, mu.values) and np.shares_memory(slopes, mu.slopes)
    assert not values.flags.writeable and not slopes.flags.writeable
    ref = spline(mu.ts, mu.values)
    assert np.array_equal(values[:-1], ref(ts[:-1])) and np.array_equal(slopes[:-1], ref(ts[:-1], 1))
    # t = L lies at the far end of the spline's last piece, which may round differently
    assert abs(values[-1] - ref(ts[-1])) <= 4 * np.spacing(np.max(np.abs(mu.values)))
    assert abs(slopes[-1] - ref(ts[-1], 1)) <= 4 * np.spacing(np.max(np.abs(mu.slopes)))
    assert np.array_equal(mu.slopes, spline_slopes(mu.ts, mu.values)) and not mu.slopes.flags.writeable


@pytest.mark.parametrize("name,q", [("torus_knot.cfg", "0"), ("torus_knot.cfg", "0.7"), ("samples_rmf.cfg", "0")])
def test_energies_on_the_ribbon_grid_build_no_slope_spline(name, q, monkeypatch):
    # closed form, quadrature and limit read mu and mu' at the ribbon's own nodes
    monkeypatch.chdir(ROOT)  # the samples config names its csv relative to the repo root
    cfg = parse_config(os.path.join("examples", name))
    set_value(cfg, "q", q, "--q")
    curve = build_curve(cfg)
    field = cli._field(cfg, curve)
    rib = cli._ribbon(cfg, curve, field)
    bending_energy_closed(rib)
    bending_energy_quadrature(rib)
    limit_energy(curve, field, rib.w, n_t=len(rib.ts))
    assert "_spline" not in vars(rib.mu)


@pytest.mark.parametrize("name", ["torus_knot.cfg", "samples_rmf.cfg"])
def test_mesh_rows_read_the_slope_spline(name, monkeypatch):
    # the mesh rows lie off the ribbon's nodes: mu there is the not-a-knot spline's, bit for bit
    monkeypatch.chdir(ROOT)
    cfg = parse_config(os.path.join("examples", name))
    curve = build_curve(cfg)
    rib = cli._ribbon(cfg, curve, cli._field(cfg, curve))
    mesh = tessellate(rib, cfg.mesh_nt, cfg.mesh_nu)
    frame = rib.normal.sample(mesh.ts)
    ruling = spline(rib.ts, rib.mu.values)(mesh.ts)[:, None] * frame.T + frame.H
    want = curve.spec.point(frame.x)[:, None, :] + mesh.us[None, :, None] * ruling[:, None, :]
    assert np.array_equal(mesh.vertices, want)
    assert "_spline" in vars(rib.mu)


FIELDS = {
    "principal_helix": lambda c: PrincipalNormalField(c["helix11"]),
    "constant_theta": lambda c: RotatedNormalField(PrincipalNormalField(c["helix11"]), 0.3),
    "solved_theta": lambda c: solved_rotation_field(PrincipalNormalField(c["helix11"]), 0.7, 400, 401)[0],
    "torus_knot": lambda c: TorusNormalField(c["knot"]),
    "rotation_minimizing_samples": lambda c: RotationMinimizingField(sample_curve()),
    "rotated_twice": lambda c: RotatedNormalField(
        RotatedNormalField(TorusNormalField(c["knot"]), 0.3), lambda t: 0.2 * np.sin(t), lambda t: 0.2 * np.cos(t)
    ),
}


FRAME_NAMES = ("T", "H", "N", "Tp", "Np", "Hp", "kappa_g", "kappa_n", "tau_g", "x")  # a FrameSample's public arrays


def arrays(table):
    return {name: getattr(table, name) for name in FRAME_NAMES}


def assert_same_bytes(table, sample):
    fresh = arrays(sample)
    for key, got in arrays(table).items():
        want = fresh[key]
        assert got.shape == want.shape and got.dtype == want.dtype, key
        assert got.tobytes() == want.tobytes(), key


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_table_equals_a_fresh_sample_bit_for_bit(name, helix11, knot):
    field = FIELDS[name]({"helix11": helix11, "knot": knot})
    assert_same_bytes(field.on_grid(401), field.sample(field.curve.grid(401)))


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_nested_tables_are_read_only_views_of_the_finer_one(name, helix11, knot):
    field = FIELDS[name]({"helix11": helix11, "knot": knot})
    fine = arrays(field.on_grid(401))
    for m in (201, 101):
        table = field.on_grid(m)
        assert_same_bytes(table, field.sample(field.curve.grid(m)))
        for key, values in arrays(table).items():
            assert np.shares_memory(values, fine[key]), key
            with pytest.raises(ValueError):
                values[0] = 0.0


def test_nested_grid_is_sampled_once(knot, jet_calls):
    field = TorusNormalField(knot)
    field.on_grid(201)
    assert field.on_grid(101) is field.on_grid(101)
    assert mu_field(knot, field, grid_size=101).frame is field.on_grid(101)
    assert jet_calls == [(201,)]
    # a coarser table kept first serves no finer grid
    other = TorusNormalField(knot)
    other.on_grid(101)
    other.on_grid(201)
    assert jet_calls == [(201,), (101,), (201,)]


def test_stride_ten_samples_again(knot, jet_calls):
    # for most lengths linspace(0, L, 2001)[::10] and linspace(0, L, 201) differ in
    # the last bit, so only power-of-two strides are served, even where they agree
    field = TorusNormalField(knot)
    field.on_grid(2001)
    field.on_grid(201)
    assert jet_calls == [(2001,), (201,)]


@given(st.floats(1e-6, 1e6), st.integers(1, 250), st.sampled_from([2, 4, 8]))
@settings(deadline=None, max_examples=200)
def test_power_of_two_grids_nest_bitwise(length, k, s):
    # the identity the strided views rest on; they check it again on every view
    curve = make_helix(HelixParams(1.0, 1.0, length=length))
    m = 4 * k + 1
    assert np.array_equal(curve.grid(s * (m - 1) + 1)[::s], curve.grid(m))


# A family member: its base field's grid tables are built before the rotation.
ROTATIONS = {
    "constant_theta": lambda base: RotatedNormalField(base, 0.3),
    "callable_theta": lambda base: RotatedNormalField(base, lambda t: 0.2 * np.sin(t), lambda t: 0.2 * np.cos(t)),
    "solved_theta": lambda base: solved_rotation_field(base, 0.7, grid_size=400, scalars_grid=401)[0],
    "rotated_twice": lambda base: RotatedNormalField(RotatedNormalField(base, 0.3), lambda t: 0.1 * t, lambda t: 0.1),
}


@pytest.mark.parametrize("name", sorted(ROTATIONS))
def test_scalar_readers_build_no_rotated_vectors(name, helix11, monkeypatch):
    # a rotated table takes its scalars by the rotation law and its vectors on first read, which
    # only the flatness residuals make; grids of 201 and 101 nodes are views of the 401-node tables
    base = PrincipalNormalField(helix11)
    base.on_grid(401)
    field = ROTATIONS[name](base)
    calls = []
    monkeypatch.setattr(frames, "cross", lambda a, b: calls.append(1) or cross(a, b))
    w = min(0.1, 0.5 * max_regular_width(helix11, field, grid_size=201))
    ribbon = construct_ribbon(helix11, field, w, grid_size=201)
    bending_energy_closed(ribbon, n_t=101)
    bending_energy_quadrature(ribbon, n_t=101)
    limit_energy(helix11, field, w, n_t=101)
    assert calls == []
    assert flatness_residuals(ribbon, 201).tangent_plane <= 1e-12
    assert calls  # the residuals read the vectors, and the spy sees them built


@pytest.mark.parametrize("name", sorted(ROTATIONS))
def test_rotated_field_dies_with_its_last_reference(name, helix11):
    # its tables hold no reference back to the field, so no cycle waits for the collector
    base = PrincipalNormalField(helix11)
    base.on_grid(401)
    field = ROTATIONS[name](base)
    gc.disable()
    try:
        arrays(field.on_grid(401))  # vectors built and read
        limit_energy(helix11, field, 0.1, n_t=205)  # not nested in 401 nodes: its vectors wait for a first read
        ref = weakref.ref(field)
        del field
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_cached_arrays_are_read_only(name, helix11, knot):
    field = FIELDS[name]({"helix11": helix11, "knot": knot})
    mu = mu_field(field.curve, field, grid_size=201)
    for values in (*arrays(field.on_grid(201)).values(), mu.values, mu.ts):
        with pytest.raises(ValueError):
            values[0] = 0.0


def test_explicit_grid_sample_stays_uncached(knot, jet_calls):
    field = TorusNormalField(knot)
    field.on_grid(201)
    for _ in range(2):
        field.sample(knot.grid(201))
    assert jet_calls == [(201,)] * 3


def straight_line():
    """The unit segment of the x axis, with its jet (c' = e_x, c'' = c''' = 0); the maps take arrays."""
    zero = lambda x: np.zeros(np.shape(x) + (3,))
    spec = CurveSpec(
        lambda x: np.stack(np.broadcast_arrays(x, 0.0, 0.0), axis=-1),
        (0.0, 1.0),
        jet=lambda x: (np.broadcast_to([1.0, 0.0, 0.0], np.shape(x) + (3,)), zero(x), zero(x)),
    )
    return ArcLengthCurve.from_unit_speed(spec)


class Tilted(NormalField):
    def normal(self, t, jet):
        N = np.broadcast_to([0.0, 1.0, 0.0], np.shape(t) + (3,))  # not orthogonal to the helix tangent
        return N, np.zeros_like(N)


class NotANumber(NormalField):
    def normal(self, t, jet):
        N = np.full(np.shape(t) + (3,), np.nan)
        return N, N


FAILING = {
    "nan_normal": (lambda c: NotANumber(c["helix11"]), NonOrthogonalNormal),
    "non_orthogonal": (lambda c: Tilted(c["helix11"]), NonOrthogonalNormal),
    "rotated_non_orthogonal": (lambda c: RotatedNormalField(Tilted(c["helix11"]), 0.4), NonOrthogonalNormal),
    "vanishing_curvature": (lambda c: PrincipalNormalField(straight_line()), VanishingCurvature),
}


@pytest.mark.parametrize("name", sorted(FAILING))
def test_failing_sample_is_not_kept(name, helix11, jet_calls):
    make, error = FAILING[name]
    field = make({"helix11": helix11})
    with pytest.raises(error):
        field.on_grid(201)  # so no finer table can serve 101 nodes as a view
    for _ in range(2):
        with pytest.raises(error):
            field.on_grid(101)
        with pytest.raises(error):
            mu_field(field.curve, field, grid_size=101)
    assert jet_calls == [(201,)] + [(101,)] * 4
