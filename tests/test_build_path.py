"""The `ribbon build` path against the per-element loops it replaced.

The rotation-minimizing field reads each double-reflection step as an
angle in the node's normal plane and turns its seed normal by their
cumulative sum; `write_obj` formats each block with one template.  The references below are the previous
per-step ``np.dot`` recurrence, run at the field's own nodes, and the
per-line writer: the normals must agree to rounding, the OBJ bytes exactly,
also when one process writes meshes of several shapes in turn.  Between
its nodes the field is a Hermite cubic on the exact slopes N' = -<T', N> T;
against a 64001-node reference its error at the 400 mesh rows is bounded
per curve.  The build itself must sample each grid once: the field's nodes
need no arc-length inversion, and the residual grid takes one jet and one
read of the ruling slope.
"""

from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

from flatribbon import cli
from flatribbon.config import build_base_field, build_curve, parse_config
from flatribbon.curves import ArcLengthCurve, CurveSpec, arc_length_reparametrize, make_torus_knot
from flatribbon.errors import VanishingCurvature
from flatribbon.frames import PrincipalNormalField, RotationMinimizingField
from flatribbon.numerics import prefix_products
from flatribbon.ribbon import MuField, RibbonMesh, construct_ribbon, tessellate, write_obj
from conftest import curve_point
from test_sampled import sample_curve

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def reference_rmf_normals(curve, ts):
    """Unit normals at the arc lengths ``ts`` of the per-step double-reflection loop (Wang et al. 2008)."""
    tangents = curve.derivative(ts, 1)
    points = curve_point(curve, ts)
    try:
        seed = PrincipalNormalField(curve).sample(0.0).N
    except VanishingCurvature:
        seed = np.array([0.0, 0.0, 1.0])
        if abs(np.dot(seed, tangents[0])) > 0.9:
            seed = np.array([0.0, 1.0, 0.0])
    n = np.asarray(seed, dtype=float)
    n = n - np.dot(n, tangents[0]) * tangents[0]
    n /= np.linalg.norm(n)
    normals = np.empty_like(tangents)
    normals[0] = n
    for i in range(len(ts) - 1):
        v1 = points[i + 1] - points[i]
        c1 = np.dot(v1, v1)
        nL = normals[i] - (2.0 / c1) * np.dot(v1, normals[i]) * v1
        tL = tangents[i] - (2.0 / c1) * np.dot(v1, tangents[i]) * v1
        v2 = tangents[i + 1] - tL
        c2 = np.dot(v2, v2)
        normals[i + 1] = nL - (2.0 / c2) * np.dot(v2, nL) * v2
    return normals / np.linalg.norm(normals, axis=1)[:, None]


def hermite_normals(curve, ts, normals, t):
    """Unit normals at t from scipy's Hermite cubic through the node normals on N' = -<T', N> T.

    Projected onto the normal plane of T(t) before normalizing, as the field does.
    """
    _, _, tangents, g2, _ = curve.jet(ts)
    want = CubicHermiteSpline(ts, normals, -np.sum(g2 * normals, axis=1)[:, None] * tangents)(t)
    T = curve.derivative(t, 1)
    want -= np.sum(want * T, axis=1)[:, None] * T
    return want / np.linalg.norm(want, axis=1)[:, None]


def samples_rmf_curve(monkeypatch):
    monkeypatch.chdir(EXAMPLES.parent)  # the config names its CSV relative to the repository root
    return build_curve(parse_config(EXAMPLES / "samples_rmf.cfg"))


def stretched_knot(ratio=12.0):
    """The README knot at phi = x + a sin x, whose phi'(x) = 1 + a cos x spans a ``ratio`` of speeds."""
    spec = make_torus_knot().spec
    a = (ratio - 1.0) / (ratio + 1.0)

    def jet(x):
        p1, p2, p3 = (v[..., None] for v in (1.0 + a * np.cos(x), -a * np.sin(x), -a * np.cos(x)))
        c1, c2, c3 = spec.jet(x + a * np.sin(x))
        return c1 * p1, c2 * p1**2 + c1 * p2, c3 * p1**3 + 3.0 * c2 * p1 * p2 + c1 * p3

    position = lambda x: spec.point(x + a * np.sin(x))
    return arc_length_reparametrize(CurveSpec(position, (0.0, 2.0 * np.pi), jet=jet), grid_size=8001)


CURVES = {
    "helix": lambda c: c["helix11"],
    "torus_knot": lambda c: c["knot"],
    "samples": lambda c: sample_curve(),
}


@pytest.mark.parametrize("name", sorted(CURVES))
def test_rmf_matches_per_step_reflection_loop(name, helix11, knot):
    curve = CURVES[name]({"helix11": helix11, "knot": knot})
    ts, _ = curve.near_grid(2001)  # the field's nodes
    normals = reference_rmf_normals(curve, ts)
    field = RotationMinimizingField(curve)
    assert np.max(np.abs(field.sample(ts).N - normals)) <= 1e-13
    # between the nodes as well, through the same Hermite cubic projected onto the normal plane
    mids = 0.5 * (ts[:-1] + ts[1:])
    assert np.max(np.abs(field.sample(mids).N - hermite_normals(curve, ts, normals, mids))) <= 1e-13


def reference_rmf_on_grid(curve, t, n=64001):
    """The double reflection on ``curve.grid(n)``, between its nodes the Hermite cubic on N' = -<T', N> T."""
    ts = curve.grid(n)
    _, _, tangents, g2, _ = curve.jet(ts)
    points = curve_point(curve, ts)
    n0 = g2[0] / np.linalg.norm(g2[0])  # the principal normal at t = 0; kappa > 0 on every case
    v1 = np.diff(points, axis=0)
    r1 = 2.0 / np.sum(v1 * v1, axis=1)
    v2 = tangents[1:] - (tangents[:-1] - (r1 * np.sum(v1 * tangents[:-1], axis=1))[:, None] * v1)
    r2 = 2.0 / np.sum(v2 * v2, axis=1)
    # one 3x3 matrix per step, their running products by the scan the per-step loop test checks
    reflect1 = np.eye(3)[..., None] - r1 * v1.T[:, None] * v1.T[None]
    reflect2 = np.eye(3)[..., None] - r2 * v2.T[:, None] * v2.T[None]
    steps = np.einsum("ijk,jlk->ilk", reflect2, reflect1)
    normals = np.vstack([n0, np.einsum("ijk,j->ki", prefix_products(steps), n0)])
    return hermite_normals(curve, ts, normals / np.linalg.norm(normals, axis=1)[:, None], t)


# sup |N - N_ref| at the 400 mesh rows.  The samples' bound fails with the
# spline through the node normals on the uniform grid (2.8e-9); the 12x-speed
# knot's fails with nodes uniform in the raw parameter (9.0e-10).
RMF_ACCURACY = {
    "helix": (lambda c: c["helix11"], 1e-12),
    "torus_knot": (lambda c: c["knot"], 5e-10),
    "samples_rmf_cfg": (lambda c: samples_rmf_curve(c["monkeypatch"]), 2e-9),
    "knot_12x_speed": (lambda c: stretched_knot(), 5e-10),
}


@pytest.mark.parametrize("name", sorted(RMF_ACCURACY))
def test_rmf_is_accurate_at_the_mesh_rows(name, helix11, knot, monkeypatch):
    make, bound = RMF_ACCURACY[name]
    curve = make({"helix11": helix11, "knot": knot, "monkeypatch": monkeypatch})
    t = np.linspace(0.0, curve.length, 400)
    got = RotationMinimizingField(curve).sample(t).N
    assert np.max(np.abs(got - reference_rmf_on_grid(curve, t))) <= bound


def test_rmf_stays_in_the_normal_plane_at_the_mesh_rows(monkeypatch):
    # the Hermite cubic through the node normals leaves the normal plane
    # between nodes unless it is projected back onto it
    monkeypatch.chdir(EXAMPLES.parent)  # the config names its CSV relative to the repository root
    cfg = parse_config(EXAMPLES / "samples_rmf.cfg")
    curve = build_curve(cfg)
    field = build_base_field(cfg, curve)
    ts = np.linspace(0.0, curve.length, cfg.mesh_nt)
    N = field.sample(ts).N
    assert np.max(np.abs(np.sum(N * curve.derivative(ts, 1), axis=1))) <= 1e-8


def test_rmf_build_inverts_no_arc_length(monkeypatch):
    curve = sample_curve()
    calls = []
    original = ArcLengthCurve.raw_parameter

    def counted(self, t):
        calls.append(np.shape(t))
        return original(self, t)

    monkeypatch.setattr(ArcLengthCurve, "raw_parameter", counted)
    RotationMinimizingField(curve)
    assert calls == []


def reference_write_obj(mesh, path):
    """One f-string per OBJ line."""
    n_t, n_u, _ = mesh.vertices.shape
    lines = []
    for i in range(n_t):
        for j in range(n_u):
            x, y, z = mesh.vertices[i, j]
            lines.append(f"v {x:.17g} {y:.17g} {z:.17g}")
    for i in range(n_t):
        x, y, z = mesh.normals[i]
        lines.append(f"vn {x:.17g} {y:.17g} {z:.17g}")

    def vid(i, j):
        return i * n_u + j + 1

    for i in range(n_t - 1):
        for j in range(n_u - 1):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            na, nb = i + 1, i + 2
            lines.append(f"f {a}//{na} {b}//{nb} {c}//{nb}")
            lines.append(f"f {a}//{na} {c}//{nb} {d}//{na}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def extreme_mesh():
    values = np.array([-0.0, 1e-300, 1e300, 0.1, -1.0 / 3.0, 2.0**-1074, -1e300, 1.0])
    vertices = np.resize(values, (3, 4, 3))
    normals = np.resize(values[::-1], (3, 3))
    return RibbonMesh(vertices, normals, np.arange(3.0), np.arange(4.0))


MESHES = {
    "knot_400x9": lambda c: tessellate(construct_ribbon(c["knot"], c["torus_field"], 0.1, grid_size=1001), 400, 9),
    "helix_2x2": lambda c: tessellate(construct_ribbon(c["helix11"], c["pn11"], 0.1, grid_size=201), 2, 2),
    "extreme_values": lambda c: extreme_mesh(),
}


@pytest.mark.parametrize("name", sorted(MESHES))
def test_write_obj_matches_per_line_writer_byte_for_byte(name, tmp_path, knot, torus_field, helix11, pn11):
    mesh = MESHES[name]({"knot": knot, "torus_field": torus_field, "helix11": helix11, "pn11": pn11})
    write_obj(mesh, tmp_path / "got.obj")
    reference_write_obj(mesh, tmp_path / "want.obj")
    assert (tmp_path / "got.obj").read_bytes() == (tmp_path / "want.obj").read_bytes()


def test_write_obj_spells_each_shape_of_a_sequence_byte_for_byte(tmp_path, knot, torus_field):
    # the face block is kept for the last shape written: a new shape replaces it, and the old one comes back
    rib = construct_ribbon(knot, torus_field, 0.1, grid_size=1001)
    for k, (n_t, n_u) in enumerate([(400, 9), (20, 5), (400, 9)]):
        mesh = tessellate(rib, n_t, n_u)
        write_obj(mesh, tmp_path / f"got{k}.obj")
        reference_write_obj(mesh, tmp_path / f"want{k}.obj")
        assert (tmp_path / f"got{k}.obj").read_bytes() == (tmp_path / f"want{k}.obj").read_bytes(), (n_t, n_u)


def test_build_samples_the_residual_grid_once(tmp_path, monkeypatch):
    shapes = []
    original = ArcLengthCurve.jet

    def counted(self, t, *args):
        shapes.append(np.shape(t))
        return original(self, t, *args)

    monkeypatch.setattr(ArcLengthCurve, "jet", counted)
    assert cli.main(["build", "--config", str(EXAMPLES / "torus_knot.cfg"), "--out", str(tmp_path)]) == 0
    assert shapes.count((201,)) == 1


def test_build_reads_mu_once_on_the_residual_rows(tmp_path, monkeypatch):
    # the residual rows' X is formed from the mu they already hold: their 201 nodes nest in none of the ribbon's
    # 2001, so a second read would evaluate the slope spline again
    shapes = []
    for name in ("__call__", "with_slope"):
        original = getattr(MuField, name)
        monkeypatch.setattr(MuField, name, lambda self, t, f=original: shapes.append(np.shape(t)) or f(self, t))
    assert cli.main(["build", "--config", str(EXAMPLES / "torus_knot.cfg"), "--out", str(tmp_path)]) == 0
    assert shapes.count((201,)) == 1
