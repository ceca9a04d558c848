"""Plain-text run configuration: `key = value` lines, '#' comments.

The same config drives every CLI mode; unknown keys are rejected so typos
surface immediately.  Curves: kind = helix | torus_knot | samples (samples
reads a CSV of t,x,y,z rows).  Normal fields: principal | torus_normal |
rotation_minimizing, optionally rotated by a constant q at t = 0.
``grid`` must lie in [GRID_MIN, GRID_MAX] and mesh_nt * mesh_nu must not
exceed MESH_MAX, so an oversized request fails before it allocates.
"""

import contextlib
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from .curves import HelixParams, TorusKnotParams, curve_from_samples, make_helix, make_torus_knot
from .errors import ConfigError, InvalidParams
from .frames import PrincipalNormalField, RotationMinimizingField, TorusNormalField
from .textio import lines

GRID_MIN = 16  # smallest `grid`: below it a sampled table is too coarse to mean anything
GRID_MAX = 200_000  # largest `grid`: `solve` at it peaks near 170 MB of resident memory (torus_knot.cfg, q = 0.7)
MESH_MAX = 500_000  # largest mesh_nt * mesh_nu: `build` at both caps peaks near 310 MB (torus_knot.cfg, q = 0.7)

_FLOAT_KEYS = {"a", "b", "length", "R", "rho", "q", "width"}
_INT_KEYS = {"n", "grid", "mesh_nt", "mesh_nu"}


@dataclass
class RunConfig:
    kind: str = "helix"
    a: float = 1.0
    b: float = 1.0
    length: float | None = None
    R: float = 2.0
    rho: float = 1.0
    n: int = 3
    csv: str | None = None
    normal: str = "principal"
    q: float = 0.0
    phi: str | float = "base"
    width: float | None = None
    grid: int = 2000
    mesh_nt: int = 400
    mesh_nu: int = 9
    r: tuple = (1.0, 2.0, 3.0, 4.0)
    out: str = "."
    fault: str = "none"


_KNOWN_KEYS = {f.name for f in fields(RunConfig)}
_FAULTS = ("none", "perturb_ruling")  # perturb_ruling: `validate` must detect a non-flat ruling


def parse_config(path):
    cfg = RunConfig()
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        set_value(cfg, key, value, f"{path}:{lineno}")
    check_domains(cfg)
    return cfg


def set_value(cfg, key, value, where):
    """Set ``key`` of ``cfg`` from its text ``value``; a ConfigError that names ``where`` if it does not parse."""
    try:
        if key in _FLOAT_KEYS:
            setattr(cfg, key, float(value))
        elif key in _INT_KEYS:
            setattr(cfg, key, int(value))
        elif key == "r":
            cfg.r = tuple(float(x) for x in value.split(","))
        elif key == "phi":
            cfg.phi = value if value == "base" else float(value)
        else:
            setattr(cfg, key, value)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for '{key}': {value}") from exc


def check_domains(cfg):
    """Reject values outside their domain; run again once the command line has overridden the file."""
    for key in _FLOAT_KEYS:
        value = getattr(cfg, key)
        if value is not None and not np.isfinite(value):
            raise ConfigError(f"config value '{key}' is not finite")
    if cfg.width is not None and not cfg.width > 0.0:
        raise ConfigError(f"width must be positive, got {cfg.width:g}")
    if not GRID_MIN <= cfg.grid <= GRID_MAX:
        raise ConfigError(f"grid must be in [{GRID_MIN}, {GRID_MAX}], got {cfg.grid}")
    for key in ("mesh_nt", "mesh_nu"):
        if getattr(cfg, key) < 2:
            raise ConfigError(f"{key} must be at least 2, got {getattr(cfg, key)}")
    if cfg.mesh_nt * cfg.mesh_nu > MESH_MAX:
        raise ConfigError(f"mesh_nt * mesh_nu must be at most {MESH_MAX}, got {cfg.mesh_nt} * {cfg.mesh_nu}")
    if cfg.fault not in _FAULTS:
        raise ConfigError(f"fault must be one of {', '.join(_FAULTS)}, got '{cfg.fault}'")
    if not abs(cfg.q) <= 2.0 * np.pi:
        raise ConfigError(f"q must be an angle in [-2 pi, 2 pi], got {cfg.q:g}")
    cfg.q += 0.0  # -0.0 is the ribbon of q = 0: name and write it so
    if cfg.phi != "base" and not 0.0 < cfg.phi < np.pi:
        raise ConfigError(f"phi must be 'base' or a ruling angle in (0, pi), got {cfg.phi:g}")
    for r in cfg.r:
        if not 0.0 < r < np.inf:
            raise ConfigError(f"every r must be positive and finite, got {r:g}")


def build_curve(cfg):
    """The config's curve; curve parameters or samples outside the domain the curve checks are a ConfigError."""
    try:
        if cfg.kind == "helix":
            return make_helix(HelixParams(cfg.a, cfg.b, cfg.length))
        if cfg.kind == "torus_knot":
            return make_torus_knot(TorusKnotParams(cfg.R, cfg.rho, cfg.n))
        if cfg.kind == "samples":
            if not cfg.csv:
                raise ConfigError("kind = samples requires a 'csv' path")
            rows = read_samples(cfg.csv)
            return curve_from_samples(rows[:, 0], rows[:, 1:])
    except InvalidParams as exc:
        raise ConfigError(f"samples CSV {cfg.csv}: {exc}" if cfg.kind == "samples" else str(exc)) from exc
    raise ConfigError(f"unknown curve kind '{cfg.kind}'")


def read_samples(path):
    """The (t, x, y, z) rows of a samples CSV: one ``np.loadtxt`` and one ``isfinite`` call past the header.

    Blank and '#' lines are skipped, and then a first line whose first cell is not a number, the header.
    Columns past z are ignored.  Lines are parsed one by one only to name a bad row or to skip a line of spaces.
    """
    try:
        with open(path) as fh:
            lines = fh.read().split("\n")
    except OSError as exc:
        raise ConfigError(f"cannot read samples CSV {path}: {exc}") from exc
    data = (i for i, line in enumerate(lines) if line.split("#", 1)[0].strip())  # lines neither blank nor comments
    first = next(data, len(lines))
    try:
        float(lines[first].split(",", 1)[0].strip(' \t"'))
    except (IndexError, ValueError):  # a header, or no line at all
        first = next(data, len(lines))
    rows = _finite_rows(lines[first:]) if first < len(lines) else np.empty((0, 4))  # np.loadtxt warns on no line
    if rows is None:  # a bad row, or a line of spaces, which np.loadtxt does not skip
        rows = np.concatenate([_finite_rows(lines[i : i + 1], f"{path}:{i + 1}") for i in [first, *data]])
    if len(rows) < 4:
        raise ConfigError("samples CSV needs at least 4 data rows")
    return rows


def _finite_rows(lines, where=None):
    """The first 4 columns of the lines by ``np.loadtxt``, else None, or a ConfigError at ``where`` if given."""
    with contextlib.suppress(ValueError):
        rows = np.loadtxt(lines, delimiter=",", quotechar='"', usecols=(0, 1, 2, 3), ndmin=2)
        if np.isfinite(rows).all():
            return rows
    if where is not None:
        raise ConfigError(f"{where}: samples need 4 finite values t, x, y, z")


def build_base_field(cfg, curve):
    """The un-rotated reference normal field selected by the config."""
    if cfg.normal == "principal":
        return PrincipalNormalField(curve)
    if cfg.normal == "torus_normal":
        if not hasattr(curve.spec, "surface_normal_jet"):
            raise ConfigError("normal = torus_normal requires kind = torus_knot")
        return TorusNormalField(curve)
    if cfg.normal == "rotation_minimizing":
        return RotationMinimizingField(curve)
    raise ConfigError(f"unknown normal field '{cfg.normal}'")


def write_csv(path, header, rows):
    """Write the header line and the table.

    ``rows`` is a 2-D array, written as one :func:`~flatribbon.textio.lines`
    call, or an iterable of rows (the three of energy.csv), written as one
    Python %-format: each column '%s' if the first row's cell is a str, else
    '%.17g'.
    """
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        if isinstance(rows, np.ndarray):
            if rows.size:
                fh.write(lines(rows.astype(np.float64, copy=False).T, ("",) + (",",) * (rows.shape[1] - 1) + ("\n",)))
        elif rows := list(rows):
            line = ",".join("%s" if isinstance(x, str) else "%.17g" for x in rows[0]) + "\n"
            fh.write((line * len(rows) % tuple(chain.from_iterable(rows))).encode())
