import dataclasses
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import flatribbon
from flatribbon import cli
from flatribbon.angleivp import solved_rotation_field
from flatribbon.config import GRID_MIN, parse_config, read_samples, write_csv
from flatribbon.energy import bending_energy_closed, bending_energy_quadrature, limit_energy
from flatribbon.errors import ConfigError
from flatribbon.frames import RotatedNormalField, RotationMinimizingField
from flatribbon.ribbon import construct_ribbon, flatness_residuals
from conftest import curve_point

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
EXAMPLE = os.path.join(ROOT, "examples", "torus_knot.cfg")


def run(args):
    return cli.main(args)


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


HELIX_CFG = """
# rectifying strip along a helix
kind = helix
a = 1.0
b = 1.0
normal = principal
width = 0.1
mesh_nt = 40
mesh_nu = 5
"""

KNOT_CFG = """
kind = torus_knot
R = 2.0
rho = 1.0
n = 3
normal = torus_normal
grid = 800
mesh_nt = 60
mesh_nu = 5
"""


# ---------------------------------------------------------------- config


def test_parse_config_known_keys(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, HELIX_CFG))
    assert cfg.kind == "helix" and cfg.a == 1.0 and cfg.width == 0.1
    assert cfg.mesh_nt == 40 and cfg.normal == "principal"


def test_parse_config_round_trip(tmp_path):
    first = parse_config(write_cfg(tmp_path, HELIX_CFG))
    # re-serializing the parsed values and parsing again gives the same config
    dump = "\n".join(
        f"{key} = {getattr(first, key)}"
        for key in ("kind", "a", "b", "normal", "width", "mesh_nt", "mesh_nu")
    )
    second = parse_config(write_cfg(tmp_path, dump, "round.cfg"))
    assert first == second


def test_parse_config_rejects_unknown_key(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write_cfg(tmp_path, "kind = helix\nwobble = 3\n"))


def test_parse_config_rejects_bad_number(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write_cfg(tmp_path, "a = three\n"))
    with pytest.raises(ConfigError):
        parse_config(write_cfg(tmp_path, "a = inf\n"))


def test_parse_config_reports_line_numbers(tmp_path):
    with pytest.raises(ConfigError) as info:
        parse_config(write_cfg(tmp_path, "kind = helix\nnot a pair\n"))
    assert ":2:" in str(info.value)


def test_samples_csv_curve(tmp_path):
    # a sampled helix loaded through the CSV path reproduces its length
    from flatribbon.config import RunConfig, build_curve
    from flatribbon.curves import HelixParams, make_helix

    helix = make_helix(HelixParams(1.0, 1.0))
    ts = np.linspace(0.0, helix.length, 400)
    rows = [(t, *curve_point(helix, t)) for t in ts]
    csv_path = tmp_path / "samples.csv"
    write_csv(csv_path, ("t", "x", "y", "z"), rows)
    cfg = RunConfig(kind="samples", csv=str(csv_path))
    curve = build_curve(cfg)
    assert curve.length == pytest.approx(helix.length, abs=1e-4)


# ---------------------------------------------------------------- commands


def test_build_writes_obj_and_residuals(tmp_path):
    cfg = write_cfg(tmp_path, HELIX_CFG)
    out = tmp_path / "out"
    assert run(["build", "--config", cfg, "--out", str(out)]) == 0
    obj = out / "ribbon_q0.obj"
    residuals = out / "residuals_q0.csv"
    assert obj.exists() and residuals.exists()
    text = obj.read_text()
    assert text.count("\nvn ") + text.startswith("vn ") == 40
    assert len([l for l in text.splitlines() if l.startswith("v ")]) == 40 * 5
    header, *rows = residuals.read_text().splitlines()
    assert header == "t,ruling_in_plane,tangent_plane,gauss_curvature"
    worst = max(float(r.split(",")[1]) for r in rows)
    assert worst < 1e-8
    assert max(float(r.split(",")[3]) for r in rows) < 1e-28  # the helix's strip is flat: K is rounding


def test_build_prints_the_residual_and_gauss_curvature_sups(tmp_path, capsys):
    cfg = write_cfg(tmp_path, KNOT_CFG)
    out = tmp_path / "out"
    assert run(["build", "--config", cfg, "--out", str(out)]) == 0
    table = np.loadtxt(out / "residuals_q0.csv", delimiter=",", skiprows=1)
    in_plane, tangent_plane, gauss = table[:, 1:].max(axis=0)
    want = f"flatness residuals: {in_plane:.3e} / {tangent_plane:.3e}, sup |K| {gauss:.3e}"
    assert want in capsys.readouterr().out.splitlines()


def test_build_rejects_excessive_width(tmp_path, capsys):
    cfg = write_cfg(tmp_path, KNOT_CFG + "width = 50\n")
    assert run(["build", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "bound" in capsys.readouterr().err


def test_unknown_config_key_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, "kind = helix\nbogus = 1\n")
    assert run(["build", "--config", cfg]) == 2


def test_missing_config_exit_code(tmp_path):
    assert run(["solve", "--config", str(tmp_path / "nope.cfg")]) == 2


@pytest.mark.parametrize("command", ["build", "solve", "energy", "sweep"])
def test_out_naming_a_regular_file_exit_code(tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("kept\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, "--config", write_cfg(tmp_path, HELIX_CFG), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("I/O error:") and str(out) in err and len(err.splitlines()) == 1
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("command", ["build", "solve", "energy"])
@pytest.mark.parametrize(
    "text,key",
    [
        ("kind = samples\n", "kind = samples requires a 'csv' path"),
        ("kind = spiral\n", "unknown curve kind 'spiral'"),
        ("kind = samples\ncsv = {missing}\n", "cannot read samples CSV {missing}"),
        ("kind = helix\nnormal = torus_normal\n", "normal = torus_normal requires kind = torus_knot"),
        ("kind = helix\nnormal = binormal\n", "unknown normal field 'binormal'"),
    ],
    ids=["samples_without_csv", "unknown_kind", "missing_csv", "torus_normal_on_helix", "unknown_normal"],
)
def test_bad_curve_or_field_choice_exit_code(tmp_path, capsys, command, text, key):
    missing = tmp_path / "missing.csv"
    cfg = write_cfg(tmp_path, text.format(missing=missing))
    assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key.format(missing=missing) in err and len(err.splitlines()) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command,extra,key",
    [
        ("energy", "width = -1\n", "width"),
        ("build", "mesh_nt = 1\n", "mesh_nt"),
        ("build", "mode = banana\n", "mode"),
        ("solve", "q = 0.5\nphi = 0\n", "phi"),
        ("solve", "q = 0.5\nphi = 4\n", "phi"),
        ("sweep", "r = 1, 0\n", "r must"),
        ("energy", "q = 7\n", "q must"),
        ("solve", "q = -7\n", "q must"),
        # sizes that once ended in "array is too big" or a MemoryError traceback, exit 1
        ("solve", "grid = 1000000000000000000\n", "grid must"),
        ("build", "mesh_nt = 1000000000000000000\n", "mesh_nt * mesh_nu"),
        ("build", "mesh_nu = 1000000000000000000\n", "mesh_nt * mesh_nu"),
        # a misspelt fault once let validate pass 17/17 without its self-test
        ("validate", "fault = perturb\n", "fault must"),
        # curve parameters the curve rejects, once "error:" and exit 3
        ("energy", "a = -1\n", "radius a must be positive"),
        ("energy", "b = -1\n", "pitch b must be nonnegative"),
        ("energy", "length = 0\n", "positive length"),
        ("build", "length = -2\n", "positive length"),
        ("energy", "kind = torus_knot\nnormal = torus_normal\nrho = 0\n", "0 < rho < R"),
        ("solve", "kind = torus_knot\nnormal = torus_normal\nrho = 3\n", "0 < rho < R"),
    ],
)
def test_out_of_domain_config_exit_code(tmp_path, capsys, command, extra, key):
    cfg = write_cfg(tmp_path, HELIX_CFG + extra)
    out = [] if command == "validate" else ["--out", str(tmp_path / "o")]  # validate writes nothing
    assert run([command, "--config", cfg] + out) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["abc", "1,,2"])
def test_unparsable_r_flag_exit_code(tmp_path, capsys, value):
    # the flag takes the config key's parser, so it fails as `r = <value>` in a file does
    cfg = write_cfg(tmp_path, f"r = {value}\n")
    assert run(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    from_file = capsys.readouterr().err
    assert run(["sweep", "--config", EXAMPLE, "--out", str(tmp_path / "o"), "--r", value]) == 2
    err = capsys.readouterr().err
    for message in (from_file, err):
        assert message.startswith("config error:") and f"bad value for 'r': {value}" in message
        assert len(message.splitlines()) == 1
    assert err.startswith("config error: --r:")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag", ["--grid", "--width", "--q"])
def test_unparsable_number_flag_exit_code(tmp_path, capsys, flag):
    # each flag takes its config key's parser: one config error line, not argparse's usage message
    assert run(["build", "--config", EXAMPLE, "--out", str(tmp_path / "o"), flag, "abc"]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {flag}: bad value for '{flag[2:]}': abc\n"
    assert not (tmp_path / "o").exists()


def test_q_flag_beyond_a_full_turn_exit_code(tmp_path, capsys):
    # theta(0) = q far outside [-2 pi, 2 pi] once gave a wrong energy with exit 0
    assert run(["energy", "--config", EXAMPLE, "--out", str(tmp_path / "o"), "--q", "1e300"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "q must" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["build", "solve", "energy"])
def test_grid_below_minimum_exit_code(tmp_path, capsys, command):
    for grid in ("0", "-3", "2", str(GRID_MIN - 1)):
        assert run([command, "--config", EXAMPLE, "--out", str(tmp_path / "o"), "--grid", grid]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "grid" in err
        assert len(err.splitlines()) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["build", "solve", "energy"])
def test_oversized_grid_flag_exit_code(tmp_path, capsys, command):
    assert run([command, "--config", EXAMPLE, "--out", str(tmp_path / "o"), "--grid", str(10**18)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "grid must" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["energy", "build", "solve"])
def test_overflowing_curve_exit_code(tmp_path, capsys, command):
    # once three RuntimeWarnings and "extension at t=nan": the length was NaN
    cfg = write_cfg(tmp_path, "kind = torus_knot\nR = 1e200\nrho = 5e199\nn = 3\nnormal = torus_normal\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not finite" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["energy", "build", "solve"])
@pytest.mark.parametrize(
    "body",
    ["kind = helix\na = 1e103\n", "kind = torus_knot\nR = 2e62\nrho = 1e62\nn = 3\nnormal = torus_normal\n"],
    ids=["helix_a1e103", "knot_R2e62"],
)
def test_overflowing_jet_exit_code(tmp_path, capsys, command, body):
    # the helix jet's a / m^3 and the arc-length chain rule's speed^5 overflow: once a RuntimeWarning,
    # and without the warning a silently dropped term of the third derivative
    cfg = write_cfg(tmp_path, body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "out of range" in err and "Warning" not in err
    assert len(err.splitlines()) == 1


def test_build_width_below_mesh_resolution_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, KNOT_CFG)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would end in a traceback
        assert run(["build", "--config", cfg, "--out", str(tmp_path / "o"), "--width", "1e-300"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "width" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()
        # a small width the mesh still resolves gives finite output
        assert run(["build", "--config", cfg, "--out", str(tmp_path / "ok"), "--width", "1e-12"]) == 0
    residuals = np.loadtxt(tmp_path / "ok" / "residuals_q0.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(residuals))


@pytest.mark.parametrize("width", ["1e100", "1e200", "1e300"])
def test_huge_width_on_unbounded_ribbon_exit_code(tmp_path, capsys, width):
    # lambda = 0 on a helix, so any width passes the bound; 1e200 and 1e300 once wrote NaN Gauss estimates
    cfg = write_cfg(tmp_path, HELIX_CFG)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["build", "--config", cfg, "--out", str(tmp_path / "o"), "--width", width]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("width", ["1e20", "1e300"])
def test_huge_width_energy_on_flat_ribbon_exit_code(tmp_path, capsys, width):
    # lambda = 0 on a helix: the energies take it as exactly 0, so 1e20 (once exit 3 on rounding noise) is linear
    cfg = write_cfg(tmp_path, HELIX_CFG)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["energy", "--config", cfg, "--out", str(tmp_path / "o"), "--width", width]) == 0
    assert capsys.readouterr().err == ""
    header, *rows = (tmp_path / "o" / "energy.csv").read_text().splitlines()
    values = [float(row.split(",")[3]) for row in rows]
    assert len(values) == 3 and np.all(np.isfinite(values))
    assert values == pytest.approx([values[2]] * 3, rel=1e-12)


def test_import_loads_no_scipy():
    # the package runs on numpy alone; scipy is only the tests' oracle
    src = os.path.dirname(os.path.dirname(flatribbon.__file__))
    code = "import sys, flatribbon.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# the flags a command does not read, with a value each would parse
REMOVED_FLAGS = [
    ("build", "--r", "1"),
    ("energy", "--r", "1"),
    ("solve", "--width", "0.1"),
    ("solve", "--r", "1"),
    ("sweep", "--grid", "100"),
    ("sweep", "--width", "0.1"),
    ("sweep", "--q", "1"),
    ("validate", "--out", None),
    ("validate", "--grid", "5"),
    ("validate", "--width", "0.1"),
    ("validate", "--q", "1"),
    ("validate", "--r", "1"),
]


@pytest.mark.parametrize("command,flag,value", REMOVED_FLAGS)
def test_flag_the_command_does_not_read_exit_code(tmp_path, capsys, command, flag, value):
    out = str(tmp_path / "o")
    args = [command, "--config", EXAMPLE] + (["--out", out] if command != "validate" else [])
    with pytest.raises(SystemExit) as info:
        run(args + [flag, out if value is None else value])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


KEPT_FLAGS = {
    "build": ("--out", "--grid", "--width", "--q"),
    "energy": ("--out", "--grid", "--width", "--q"),
    "solve": ("--out", "--grid", "--q"),
    "sweep": ("--out", "--r"),
    "validate": (),
}
FLAG_VALUES = {
    "--out": ("x", "x"),
    "--grid": ("64", 64),
    "--width": ("0.25", 0.25),
    "--q": ("0.5", 0.5),
    "--r": ("1.5,2", (1.5, 2.0)),
}


@pytest.mark.parametrize("command", sorted(KEPT_FLAGS))
def test_each_kept_flag_overrides_its_key(monkeypatch, command):
    seen = []
    monkeypatch.setitem(cli._COMMANDS, command, (lambda c: seen.append(c) or 0, cli._COMMANDS[command][1]))
    for flag in KEPT_FLAGS[command]:
        text, value = FLAG_VALUES[flag]
        assert run([command, "--config", EXAMPLE, flag, text]) == 0
        assert getattr(seen.pop(), flag[2:]) == value
    assert run([command, "--config", EXAMPLE]) == 0
    assert seen.pop() == parse_config(EXAMPLE)


def test_parser_is_built_once_and_keeps_no_options(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, KNOT_CFG)
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "solve", (lambda c: seen.append((c.grid, c.q)) or 0, cli._COMMANDS["solve"][1]))
    assert run(["solve", "--config", cfg, "--grid", "64", "--q", "0.5"]) == 0
    assert run(["solve", "--config", cfg]) == 0
    assert run(["solve", "--config", cfg, "--q", "0.25"]) == 0
    assert seen == [(64, 0.5), (800, 0.0), (800, 0.25)]
    assert cli._make_parser() is cli._make_parser()


def reference_write_csv(path, header, rows):
    """The per-element writer that write_csv replaced."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(x if isinstance(x, str) else f"{float(x):.17g}" for x in row) + "\n")


def test_write_csv_matches_per_element_writer(tmp_path, helix11, pn11):
    rib = construct_ribbon(helix11, pn11, 0.1, grid_size=201)
    ts, in_plane, tangent_plane, gauss = flatness_residuals(rib, 201).rows
    solution = solved_rotation_field(pn11, 0.7, grid_size=200, scalars_grid=201)[1]
    reports = [
        ("closed", bending_energy_closed(rib, n_t=201)),
        ("quadrature", bending_energy_quadrature(rib, n_t=201)),
        ("limit", limit_energy(helix11, pn11, 0.1, n_t=201)),
    ]
    tables = {
        "residuals": (
            ("t", "ruling_in_plane", "tangent_plane", "gauss_curvature"),
            lambda: zip(ts, in_plane, tangent_plane, gauss),
        ),
        "theta": (("t", "theta", "theta_prime"), lambda: zip(solution.ts, solution.values, solution.derivatives)),
        "energy": (
            ("label", "q", "w", "value", "method", "err_estimate"),
            lambda: [(label, 0.7, r.width, r.value, r.method, r.error_estimate) for label, r in reports],
        ),
        "edge_values": (
            ("a", "b", "c", "d"),
            lambda: [
                (-0.0, 1e-300, 2.0**-1074, "x"),
                (3, np.float64(0.1), -(2**60), "y"),
                (np.float64(-0.0), 10**20, np.inf, "z"),
                (np.int64(7), np.float64(2.0**-1074), np.nan, ""),
            ],
        ),
        "array_rows": (("t", "x"), lambda: np.array([[0.0, -0.0], [1e-300, 5e-324]])),
        "empty": (("a", "b"), lambda: []),
    }
    for name, (header, rows) in tables.items():
        write_csv(tmp_path / f"{name}.csv", header, rows())
        reference_write_csv(tmp_path / f"{name}_reference.csv", header, rows())
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / f"{name}_reference.csv").read_bytes(), name


def helix_sample_rows():
    ts = np.linspace(0.0, 2.0 * np.pi, 60)
    return np.column_stack([ts, np.cos(ts), np.sin(ts), 0.5 * ts])


BAD_LINE = {"nan_t": 12, "inf_z": 12, "three_columns": 2, "text_cell": 11}  # the header is line 1: rows[i] is line i + 2


@pytest.mark.parametrize(
    "case,key",
    [
        ("non_increasing_t", "strictly increasing"),
        ("nan_t", "finite"),
        ("inf_z", "finite"),
        ("three_columns", "4 finite values"),
        ("text_cell", "4 finite values"),
    ],
)
def test_bad_samples_csv_exit_code(tmp_path, capsys, case, key):
    rows = helix_sample_rows()
    if case == "non_increasing_t":
        rows[10, 0] = rows[9, 0]
    elif case == "nan_t":
        rows[10, 0] = np.nan
    elif case == "inf_z":
        rows[10, 3] = np.inf
        rows[20, 1] = np.inf  # a later bad row: the first one is named
    elif case == "three_columns":
        rows = rows[:, :3]
    csv_path = tmp_path / "samples.csv"
    write_csv(csv_path, ("t", "x", "y", "z")[: rows.shape[1]], rows)
    if case == "text_cell":  # a row that does not parse, after the header, is an error and not a second header
        lines = csv_path.read_text().splitlines(keepends=True)
        csv_path.write_text("".join(lines[:10] + ["0.5,1,2,oops\n"] + lines[10:]))
    cfg = write_cfg(tmp_path, f"kind = samples\ncsv = {csv_path}\nnormal = rotation_minimizing\n")
    assert run(["build", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    if case == "non_increasing_t":  # the curve's own check, named by the CSV
        assert err.startswith(f"config error: samples CSV {csv_path}:")
    if case in BAD_LINE:
        assert f"{csv_path}:{BAD_LINE[case]}:" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "o").exists()


def test_samples_csv_comments_quotes_and_extra_columns(tmp_path):
    # comment and blank lines anywhere, a quoted number and columns past z read as the plain table does
    rows = helix_sample_rows()
    plain, odd = tmp_path / "plain.csv", tmp_path / "odd.csv"
    write_csv(plain, ("t", "x", "y", "z"), rows)
    header, *lines = plain.read_text().splitlines()
    lines[5] = '"' + lines[5].replace(",", '",', 1)
    lines = [line + ",extra,7" if i % 3 == 0 else line for i, line in enumerate(lines)]
    odd.write_text("\n".join(["# a sampled helix", "", header, "  # indented comment", *lines[:30], "   ", *lines[30:]]))
    assert '"' in odd.read_text() and "extra" in odd.read_text()
    want = read_samples(str(plain))
    assert want.tobytes() == rows.tobytes()
    assert read_samples(str(odd)).tobytes() == want.tobytes()


@pytest.mark.parametrize("text", ["", "# only a comment\n\n", "t,x,y,z\n# no rows\n", "t,x,y,z\n0,1,2,3\n1,2,3,4\n"])
def test_samples_csv_without_4_rows_exit_code(tmp_path, capsys, text):
    csv_path = tmp_path / "samples.csv"
    csv_path.write_text(text)
    cfg = write_cfg(tmp_path, f"kind = samples\ncsv = {csv_path}\nnormal = rotation_minimizing\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.loadtxt warns on empty input
        assert run(["build", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == "config error: samples CSV needs at least 4 data rows\n"
    assert not (tmp_path / "o").exists()


def test_coarse_samples_arc_length_error_names_the_table_exit_code(tmp_path, capsys):
    # 52 rows of the (2, 1, 5) torus knot: the spline's arc-length estimate misses tol on the 1001-node
    # table, which no key or flag sizes, so the message names the table and no option
    ts = np.linspace(0.0, 2.0 * np.pi, 52)
    r = 2.0 + np.cos(5.0 * ts)
    csv_path = tmp_path / "samples.csv"
    write_csv(csv_path, ("t", "x", "y", "z"), np.column_stack([ts, r * np.cos(ts), r * np.sin(ts), np.sin(5.0 * ts)]))
    cfg = write_cfg(tmp_path, f"kind = samples\ncsv = {csv_path}\nnormal = rotation_minimizing\n")
    assert run(["build", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: arc-length error estimate") and "1001-node table" in err
    assert "grid_size" not in err
    assert len(err.splitlines()) == 1


def test_solve_writes_theta_table(tmp_path):
    cfg = write_cfg(tmp_path, HELIX_CFG + "grid = 400\n")
    out = tmp_path / "out"
    assert run(["solve", "--config", cfg, "--out", str(out), "--q", "1.5707963267948966"]) == 0
    path = out / "theta_q1.5708.csv"
    header, *rows = path.read_text().splitlines()
    assert header == "t,theta,theta_prime"
    assert len(rows) == 401
    t0, theta0, _ = (float(x) for x in rows[0].split(","))
    assert t0 == 0.0 and theta0 == pytest.approx(np.pi / 2, abs=1e-12)


def test_zero_q_builds_on_the_base_field_itself(tmp_path, monkeypatch):
    # theta = 0 solves the same-angle IVP exactly, so no frame sample pays a rotation by zero
    calls = []
    for name in ("sample", "_grid_sample"):
        original = getattr(RotatedNormalField, name)
        monkeypatch.setattr(RotatedNormalField, name, lambda self, ts, f=original: calls.append(1) or f(self, ts))
    monkeypatch.chdir(ROOT)  # the samples config names its csv relative to the repo root
    assert run(["build", "--config", "examples/samples_rmf.cfg", "--out", str(tmp_path), "--q", "0"]) == 0
    assert calls == []


@pytest.mark.parametrize("where", ["flag", "config"])
def test_negative_zero_q_writes_the_files_of_zero_q(tmp_path, where):
    # q = -0.0 is the ribbon of q = 0: the same file names (q0, not q-0) and the same bytes, "0" in energy.csv
    outs = {}
    for q in ("0", "-0"):
        cfg = write_cfg(tmp_path, KNOT_CFG + (f"q = {q}\n" if where == "config" else ""), name=f"q{q}.cfg")
        flag = ["--q", q] if where == "flag" else []
        outs[q] = out = tmp_path / f"out{q}"
        for command in ("build", "solve", "energy"):
            assert run([command, "--config", cfg, "--out", str(out)] + flag) == 0
    names = sorted(os.listdir(outs["0"]))
    assert names == ["energy.csv", "residuals_q0.csv", "ribbon_q0.obj", "theta_q0.csv"]
    assert sorted(os.listdir(outs["-0"])) == names
    for name in names:
        assert (outs["-0"] / name).read_bytes() == (outs["0"] / name).read_bytes()


def test_numeric_phi_applies_at_zero_q(tmp_path, monkeypatch):
    # theta = 0 solves only the same-angle IVP, so q = 0 must still prescribe phi
    text = "kind = helix\na = 1.0\nb = 1.0\nnormal = rotation_minimizing\nphi = 1.0\ngrid = 400\n"
    cfg = write_cfg(tmp_path, text)
    builds = []
    original = RotationMinimizingField.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(RotationMinimizingField, "__init__", counted)
    tables, energies = [], []
    for q in ("0", "1e-12"):
        out = tmp_path / f"out{q}"
        builds.clear()
        assert run(["solve", "--config", cfg, "--out", str(out), "--q", q]) == 0
        assert len(builds) == 1
        tables.append(np.loadtxt(out / f"theta_q{float(q):g}.csv", delimiter=",", skiprows=1))
        assert run(["energy", "--config", cfg, "--out", str(out), "--q", q, "--width", "0.05"]) == 0
        energies.append(np.loadtxt(out / "energy.csv", delimiter=",", skiprows=1, usecols=3))
    assert abs(tables[0][-1, 1]) > 1.0
    assert np.max(np.abs(tables[0] - tables[1])) <= 1e-9
    assert np.max(np.abs(energies[0] - energies[1])) <= 1e-9


def test_energy_reports_three_methods(tmp_path):
    cfg = write_cfg(tmp_path, HELIX_CFG + "grid = 800\n")
    out = tmp_path / "out"
    assert run(["energy", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "energy.csv").read_text().splitlines()
    assert lines[0] == "label,q,w,value,method,err_estimate"
    labels = [l.split(",")[0] for l in lines[1:]]
    assert labels == ["closed", "quadrature", "limit"]
    values = [float(l.split(",")[3]) for l in lines[1:]]
    want = 0.1 * 2 * np.pi * np.sqrt(2.0) / 2.0
    for v in values:
        assert v == pytest.approx(want, rel=1e-6)


def test_sweep_tables(tmp_path):
    cfg = write_cfg(tmp_path, "kind = helix\nr = 1,2\n")
    out = tmp_path / "out"
    assert run(["sweep", "--config", cfg, "--out", str(out)]) == 0
    for name in ("ratioA_r1.csv", "ratioA_r2.csv", "ratioB_r1.csv", "ratioB_r2.csv"):
        assert (out / name).exists()
    a_rows = (out / "ratioA_r1.csv").read_text().splitlines()[1:]
    assert len(a_rows) == 512
    q0, v0 = (float(x) for x in a_rows[0].split(","))
    assert (q0, v0) == (0.0, 1.0)
    b_rows = (out / "ratioB_r1.csv").read_text().splitlines()[1:]
    qs = np.array([float(r.split(",")[0]) for r in b_rows])
    vals = np.array([float(r.split(",")[1]) for r in b_rows])
    i = int(np.argmin(np.abs(qs - np.pi)))
    # the grid contains q = pi exactly (512 points over [0, 2 pi))
    assert qs[i] == pytest.approx(np.pi, abs=1e-12)
    assert vals[i] == pytest.approx(2.0 - np.pi / 2.0, abs=1e-10)


def test_sweep_flattens_as_r_grows(tmp_path):
    cfg = write_cfg(tmp_path, "kind = helix\nr = 1,2,3,4\n")
    out = tmp_path / "out"
    assert run(["sweep", "--config", cfg, "--out", str(out)]) == 0
    devs = {}
    for r in (1, 4):
        rows = (out / f"ratioA_r{r}.csv").read_text().splitlines()[1:]
        vals = np.array([float(row.split(",")[1]) for row in rows])
        devs[r] = float(np.max(np.abs(vals - 1.0)))
    assert devs[4] < devs[1]


def test_sweep_huge_r_is_finite(tmp_path):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning would end in a traceback
        assert run(["sweep", "--config", EXAMPLE, "--out", str(out), "--r", "1e200"]) == 0
    for name in ("ratioA_r1e+200.csv", "ratioB_r1e+200.csv"):
        vals = np.loadtxt(out / name, delimiter=",", skiprows=1)[:, 1]
        assert len(vals) == 512 and np.all(np.isfinite(vals))
        np.testing.assert_allclose(vals, 1.0, rtol=1e-12)


def test_sweep_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, "kind = helix\nr = 1\n")
    outputs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert run(["sweep", "--config", cfg, "--out", str(out)]) == 0
        outputs.append((out / "ratioA_r1.csv").read_bytes())
    assert outputs[0] == outputs[1]
    assert b"\r" not in outputs[0]


def test_validate_passes_and_reports_each_check(capsys):
    assert run(["validate"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if " measured=" in l]
    assert all(l.endswith("pass") for l in lines)
    summary = out.splitlines()[-1]
    assert summary == f"{len(lines)}/{len(lines)} checks passed"


def test_validate_detects_injected_fault(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "fault = perturb_ruling\n")
    assert run(["validate", "--config", cfg]) == 1
    out = capsys.readouterr().out
    assert any("FAIL" in l for l in out.splitlines() if "flatness" in l)


def test_theta_check_fails_on_an_error_above_its_rounding_floor(monkeypatch):
    # the floor 2000 eps max|theta| is at most 2.6e-12, so an error of 1e-10 in every angle must show
    from flatribbon import angleivp
    from flatribbon.validate import run_checks

    family = angleivp.ThetaFlow.family

    def shifted(self, qs, rhs):
        solved = family(self, qs, rhs)
        return dataclasses.replace(solved, values=solved.values + 1e-10)

    monkeypatch.setattr(angleivp.ThetaFlow, "family", shifted)
    (check,) = [c for c in run_checks() if c.name == "theta_flow_vs_exact"]
    assert not check.passed


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--config", EXAMPLE],
        ["energy", "--config", EXAMPLE],
        ["solve", "--config", EXAMPLE],
        ["build", "--config", EXAMPLE, "--q", "0.7"],
        ["energy", "--config", EXAMPLE, "--q", "0.7"],
        ["solve", "--config", EXAMPLE, "--q", "0.7"],
        ["build", "--config", os.path.join("examples", "samples_rmf.cfg")],
    ],
    ids=["build", "energy", "solve", "build_q0.7", "energy_q0.7", "solve_q0.7", "build_samples"],
)
def test_commands_take_no_np_cross(tmp_path, monkeypatch, argv):
    # numerics.cross is bitwise np.cross without its Python-level axis handling, which cost more than the products
    def refuse(*args, **kwargs):
        raise AssertionError("np.cross called on a command's path")

    monkeypatch.setattr(np, "cross", refuse)
    monkeypatch.chdir(ROOT)  # the samples config names its csv relative to the repo root
    assert run(argv + ["--out", str(tmp_path)]) == 0


def _energy_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def _unscaled_and_scaled_energies(tmp_path, text, scaled):
    """The energy.csv rows of `energy` on both config texts, any warning an error."""
    rows = []
    for name, body in (("unscaled.cfg", text), ("scaled.cfg", scaled)):
        out = tmp_path / name.replace(".cfg", "")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["energy", "--config", write_cfg(tmp_path, body, name), "--out", str(out)]) == 0
        rows.append(_energy_rows(out / "energy.csv"))
    return rows


@pytest.mark.parametrize(
    "scale, normal",
    [(1e8, "torus_normal"), (1e10, "torus_normal"), (1e10, "principal")]
    + [(s, "torus_normal") for s in (1e-20, 1e-13, 1e40, 1e60)],
    ids=["100000000.0", "10000000000.0", "principal-10000000000.0", "1e-20", "1e-13", "1e+40", "1e+60"],
)
def test_scaled_knot_gives_the_unscaled_energies(tmp_path, scale, normal):
    # the arc-length error and speed tests, the flatness test, the curvature floor and the slope
    # table's kappa_n test are relative to the length, so the scale drops out
    with open(EXAMPLE) as fh:
        text = fh.read().replace("normal = torus_normal", f"normal = {normal}")
    assert f"normal = {normal}\n" in text
    scaled = text.replace("R = 2.0", f"R = {2.0 * scale:g}").replace("rho = 1.0", f"rho = {scale:g}")
    assert f"R = {2.0 * scale:g}\nrho = {scale:g}\n" in scaled
    unscaled, rescaled = _unscaled_and_scaled_energies(tmp_path, text, scaled)
    assert [r[4] for r in rescaled] == [r[4] for r in unscaled] == ["closed_form", "quadrature", "limit_formula"]
    for got, want in zip(rescaled, unscaled):
        assert float(got[3]) == pytest.approx(float(want[3]), rel=1e-9)
        assert float(got[2]) == pytest.approx(scale * float(want[2]), rel=1e-9)  # w scales with the knot


@pytest.mark.parametrize("scale", [1e-13, 1e40])
def test_scaled_helix_gives_the_unscaled_energies(tmp_path, scale):
    # the slope table once floored sup|kappa_n| at 1e-30, so at a = b = 1e40 every node took the
    # L'Hopital extension and the run ended in ExtensionOrderExceeded
    scaled = HELIX_CFG.replace("a = 1.0", f"a = {scale:g}").replace("b = 1.0", f"b = {scale:g}")
    scaled = scaled.replace("width = 0.1", f"width = {0.1 * scale:g}")
    assert f"a = {scale:g}\nb = {scale:g}\n" in scaled and f"width = {0.1 * scale:g}\n" in scaled
    unscaled, rescaled = _unscaled_and_scaled_energies(tmp_path, HELIX_CFG, scaled)
    assert [r[4] for r in rescaled] == [r[4] for r in unscaled] and len(unscaled) == 3
    for got, want in zip(rescaled, unscaled):
        assert float(got[3]) == pytest.approx(float(want[3]), rel=1e-9)
        assert float(got[2]) == pytest.approx(scale * float(want[2]), rel=1e-9)
