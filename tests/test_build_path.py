"""The `ribbon build` path against the per-element loops it replaced.

The rotation-minimizing field builds each double-reflection step as one
3x3 matrix and carries n by their running products; `write_obj` formats
each block with one template.  The references below are the previous
per-step ``np.dot`` recurrence and the per-line writer: the normals must
agree to rounding, the OBJ bytes exactly.  The build itself must sample each
grid once: one arc-length inversion for the field's table, one jet for the
residual grid.
"""

from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from flatribbon import cli
from flatribbon.config import build_base_field, build_curve, parse_config
from flatribbon.curves import ArcLengthCurve, frenet_data
from flatribbon.frames import RotationMinimizingField
from flatribbon.ribbon import RibbonMesh, construct_ribbon, tessellate, write_obj
from test_sampled import sample_curve

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def reference_rmf_normals(curve, grid_size=2001):
    """Node normals of the per-step double-reflection loop (Wang et al. 2008)."""
    ts = np.linspace(0.0, curve.length, grid_size)
    tangents = curve.derivative(ts, 1)
    points = curve.point(ts)
    fd = frenet_data(curve, 0.0)
    if np.all(np.isfinite(fd.principal_normal)):
        seed = fd.principal_normal
    else:
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
    return ts, normals


CURVES = {
    "helix": lambda c: c["helix11"],
    "torus_knot": lambda c: c["knot"],
    "samples": lambda c: sample_curve(),
}


@pytest.mark.parametrize("name", sorted(CURVES))
def test_rmf_matches_per_step_reflection_loop(name, helix11, knot):
    curve = CURVES[name]({"helix11": helix11, "knot": knot})
    ts, normals = reference_rmf_normals(curve)
    field = RotationMinimizingField(curve)
    assert np.max(np.abs(field.sample(ts).N - normals / np.linalg.norm(normals, axis=1)[:, None])) <= 1e-13
    # between the nodes as well, through the same interpolation projected onto the normal plane
    mids = 0.5 * (ts[:-1] + ts[1:])
    want = CubicSpline(ts, normals)(mids)
    tangents = curve.derivative(mids, 1)
    want -= np.sum(want * tangents, axis=1)[:, None] * tangents
    assert np.max(np.abs(field.sample(mids).N - want / np.linalg.norm(want, axis=1)[:, None])) <= 1e-13


def test_rmf_stays_in_the_normal_plane_at_the_mesh_rows(monkeypatch):
    # the componentwise interpolant of the node normals leaves the normal plane
    # between nodes (by 8.9e-7 here) unless it is projected back onto it
    monkeypatch.chdir(EXAMPLES.parent)  # the config names its CSV relative to the repository root
    cfg = parse_config(EXAMPLES / "samples_rmf.cfg")
    curve = build_curve(cfg)
    field = build_base_field(cfg, curve)
    ts = np.linspace(0.0, curve.length, cfg.mesh_nt)
    N = field.sample(ts).N
    assert np.max(np.abs(np.sum(N * curve.derivative(ts, 1), axis=1))) <= 1e-8


def test_rmf_build_inverts_arc_length_once(monkeypatch):
    curve = sample_curve()
    calls = []
    original = ArcLengthCurve.raw_parameter

    def counted(self, t):
        calls.append(np.shape(t))
        return original(self, t)

    monkeypatch.setattr(ArcLengthCurve, "raw_parameter", counted)
    RotationMinimizingField(curve)
    assert calls == [(2001,)]


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


def test_build_samples_the_residual_grid_once(tmp_path, monkeypatch):
    shapes = []
    original = ArcLengthCurve.jet

    def counted(self, t):
        shapes.append(np.shape(t))
        return original(self, t)

    monkeypatch.setattr(ArcLengthCurve, "jet", counted)
    assert cli.main(["build", "--config", str(EXAMPLES / "torus_knot.cfg"), "--out", str(tmp_path)]) == 0
    assert shapes.count((201,)) == 1
