"""One frame table and one ruling slope per (field, node count).

``NormalField.on_grid(n)`` samples the field on ``curve.grid(n)`` once and
keeps the checked table, read-only, for the field's lifetime; a rotated
field builds its table from its base field's.  ``mu_field`` keeps its slope
table on the field the same way.  Each test builds fresh fields, so no
table from another test is reused.
"""

import dataclasses
import os

import numpy as np
import pytest

from flatribbon import cli
from flatribbon.curves import ArcLengthCurve, CurveSpec
from flatribbon.energy import case_a_energy, limit_energy
from flatribbon.errors import NonOrthogonalNormal, VanishingCurvature
from flatribbon.frames import (
    NormalField,
    PrincipalNormalField,
    RotatedNormalField,
    RotationMinimizingField,
    TorusNormalField,
    sampled_scalars,
)
from flatribbon.ribbon import mu_field
from test_sampled import sample_curve

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
EXAMPLE = os.path.join(ROOT, "examples", "torus_knot.cfg")


@pytest.fixture
def jet_calls(monkeypatch):
    """The shape of t at every ``ArcLengthCurve.jet`` call from here on."""
    calls = []
    original = ArcLengthCurve.jet

    def counted(self, t):
        calls.append(np.shape(t))
        return original(self, t)

    monkeypatch.setattr(ArcLengthCurve, "jet", counted)
    return calls


def test_energy_command_samples_each_grid_once(tmp_path, jet_calls):
    # width bound, ribbon, closed form, quadrature and limit all on 2001 nodes
    assert cli.main(["energy", "--config", EXAMPLE, "--out", str(tmp_path)]) == 0
    assert jet_calls == [(2001,)]


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
    assert sampled_scalars(field, 400) is sampled_scalars(field, 401)


def test_limit_energy_builds_no_slope_spline(helix11):
    # the limit energy reads only the slope table, so its spline is never built
    field = RotatedNormalField(PrincipalNormalField(helix11), 0.3)
    limit_energy(helix11, field, 0.1, n_t=201)
    mu = mu_field(helix11, field, grid_size=201)
    assert "_spline" not in vars(mu)
    mu.derivative(0.5)
    assert "_spline" in vars(mu)


FIELDS = {
    "principal_helix": lambda c: PrincipalNormalField(c["helix11"]),
    "torus_knot": lambda c: TorusNormalField(c["knot"]),
    "rotation_minimizing_samples": lambda c: RotationMinimizingField(sample_curve()),
    "rotated_twice": lambda c: RotatedNormalField(
        RotatedNormalField(TorusNormalField(c["knot"]), 0.3), lambda t: 0.2 * np.sin(t), lambda t: 0.2 * np.cos(t)
    ),
}


def arrays(table):
    return {f.name: getattr(table, f.name) for f in dataclasses.fields(table)}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_table_equals_a_fresh_sample_bit_for_bit(name, helix11, knot):
    field = FIELDS[name]({"helix11": helix11, "knot": knot})
    table = field.on_grid(401)
    fresh = arrays(field.sample(field.curve.grid(401)))
    for key, got in arrays(table).items():
        want = fresh[key]
        assert got.shape == want.shape and got.dtype == want.dtype, key
        assert got.tobytes() == want.tobytes(), key


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
    """The unit segment of the x axis, with its (vanishing) derivatives; the maps take arrays."""
    spec = CurveSpec(
        lambda x: np.stack(np.broadcast_arrays(x, 0.0, 0.0), axis=-1),
        (0.0, 1.0),
        derivatives=(
            lambda x: np.broadcast_to([1.0, 0.0, 0.0], np.shape(x) + (3,)),
            lambda x: np.zeros(np.shape(x) + (3,)),
            lambda x: np.zeros(np.shape(x) + (3,)),
        ),
    )
    return ArcLengthCurve.from_unit_speed(spec)


class Tilted(NormalField):
    def normal(self, t, jet):
        N = np.broadcast_to([0.0, 1.0, 0.0], np.shape(t) + (3,))  # not orthogonal to the helix tangent
        return N, np.zeros_like(N)


FAILING = {
    "non_orthogonal": (lambda c: Tilted(c["helix11"]), NonOrthogonalNormal),
    "rotated_non_orthogonal": (lambda c: RotatedNormalField(Tilted(c["helix11"]), 0.4), NonOrthogonalNormal),
    "vanishing_curvature": (lambda c: PrincipalNormalField(straight_line()), VanishingCurvature),
}


@pytest.mark.parametrize("name", sorted(FAILING))
def test_failing_sample_is_not_kept(name, helix11, jet_calls):
    make, error = FAILING[name]
    field = make({"helix11": helix11})
    for _ in range(2):
        with pytest.raises(error):
            field.on_grid(101)
        with pytest.raises(error):
            mu_field(field.curve, field, grid_size=101)
    assert jet_calls == [(101,)] * 4
