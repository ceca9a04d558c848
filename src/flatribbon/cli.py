"""Command-line front end; each flag overrides the config key of its name.

    ribbon build|energy --config <path> [--out <dir>] [--grid N] [--width W] [--q Q]
    ribbon solve --config <path> [--out <dir>] [--grid N] [--q Q]
    ribbon sweep --config <path> [--out <dir>] [--r R,...]
    ribbon validate [--config <path>]

`energy` takes its three energies on the ribbon's own min(grid, 2001)-node grid.
Exit codes: 0 success, 1 failed validation check, 2 config error or a flag the
command does not read, 3 mathematical error (e.g. width beyond the regularity
bound), 4 I/O error.
CSV output is deterministic: 17 significant digits, '\\n' line endings.
"""

import argparse
import functools
import os
import sys

import numpy as np

from . import angleivp, energy, validate
from .config import RunConfig, build_base_field, build_curve, check_domains, parse_config, set_value, write_csv
from .errors import ConfigError, FlatRibbonError
from .ribbon import construct_ribbon, flatness_residuals, max_regular_width, tessellate, write_obj


@functools.cache
def _make_parser():
    """The argument parser, built on first use and reused by every later ``main`` call."""
    parser = argparse.ArgumentParser(prog="ribbon", description="Flat ribbons along space curves")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=(name != "validate"), help="key = value config file")
        for key in keys:
            p.add_argument(f"--{key}", help=f"override the config key '{key}'")
    return parser


def _load_config(args):
    """The config file's values, overridden by each flag given, parsed as its config key is."""
    cfg = parse_config(args.config) if args.config else RunConfig()
    for key in _COMMANDS[args.command][1]:
        value = getattr(args, key)
        if value is not None:
            set_value(cfg, key, value, f"--{key}")
    check_domains(cfg)
    return cfg


def _solved_field(cfg, base):
    """(rotated field, theta solution) of the IVP from theta(0) = q with the config's phi."""
    phi = None
    if cfg.phi != "base":
        phi_value = float(cfg.phi)
        phi = lambda t: phi_value
    return angleivp.solved_rotation_field(base, cfg.q, grid_size=cfg.grid, phi=phi)


def _field(cfg, curve):
    base = build_base_field(cfg, curve)
    if cfg.q == 0.0 and cfg.phi == "base":
        return base  # theta = 0 solves the same-angle IVP exactly
    return _solved_field(cfg, base)[0]


def _ribbon(cfg, curve, field):
    """The ribbon of the set half-width, else half the regular bound (0.1 if unbounded); one slope table."""
    n = min(cfg.grid, 2001)
    w = cfg.width
    if w is None:
        w_max = max_regular_width(curve, field, grid_size=n)
        w = 0.1 if np.isinf(w_max) else 0.5 * w_max
    return construct_ribbon(curve, field, w, grid_size=n)


def cmd_build(cfg):
    curve = build_curve(cfg)
    rib = _ribbon(cfg, curve, _field(cfg, curve))
    mesh = tessellate(rib, cfg.mesh_nt, cfg.mesh_nu)
    if np.any(np.all(mesh.vertices[:, 1:] == mesh.vertices[:, :-1], axis=-1)):
        raise ConfigError(f"width {rib.w:.6g} is below the mesh resolution: vertices along a ruling coincide")
    report = flatness_residuals(rib, 201)
    os.makedirs(cfg.out, exist_ok=True)
    tag = f"q{cfg.q:g}"
    write_obj(mesh, os.path.join(cfg.out, f"ribbon_{tag}.obj"))
    header = ("t", "ruling_in_plane", "tangent_plane", "gauss_curvature")
    write_csv(os.path.join(cfg.out, f"residuals_{tag}.csv"), header, np.column_stack(report.rows))
    print(f"wrote ribbon_{tag}.obj ({cfg.mesh_nt}x{cfg.mesh_nu}), w = {rib.w:.6g}")
    residuals = f"{report.ruling_in_plane:.3e} / {report.tangent_plane:.3e}"
    print(f"flatness residuals: {residuals}, sup |K| {report.gauss_curvature:.3e}")
    return 0


def cmd_solve(cfg):
    curve = build_curve(cfg)
    _, solution = _solved_field(cfg, build_base_field(cfg, curve))
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, f"theta_q{cfg.q:g}.csv")
    write_csv(path, ("t", "theta", "theta_prime"), np.column_stack([solution.ts, solution.values, solution.derivatives]))
    print(f"wrote {path}; step {solution.step:.3e}, error estimate {solution.error_estimate:.3e}")
    return 0


def cmd_energy(cfg):
    curve = build_curve(cfg)
    field = _field(cfg, curve)
    rib = _ribbon(cfg, curve, field)
    reports = [
        ("closed", energy.bending_energy_closed(rib)),
        ("quadrature", energy.bending_energy_quadrature(rib)),
        ("limit", energy.limit_energy(curve, field, rib.w, n_t=len(rib.ts))),
    ]
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "energy.csv")
    write_csv(
        path,
        ("label", "q", "w", "value", "method", "err_estimate"),
        [(label, cfg.q, r.width, r.value, r.method, r.error_estimate) for label, r in reports],
    )
    for label, r in reports:
        print(f"{label:>10}: {r.value:.12g} ({r.method}, est {r.error_estimate:.2e})")
    return 0


def cmd_sweep(cfg):
    os.makedirs(cfg.out, exist_ok=True)
    qs = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    for r in cfg.r:
        with np.errstate(divide="ignore", invalid="ignore"):  # ratio B's q = 0 pole, where its limit is 1
            ratio_b = np.where(qs == 0.0, 1.0, energy.helix_ratio_b(qs, r))
        for name, ratio in (("A", energy.helix_ratio_a(qs, r)), ("B", ratio_b)):
            write_csv(os.path.join(cfg.out, f"ratio{name}_r{r:g}.csv"), ("q", "ratio"), np.column_stack([qs, ratio]))
    print(f"wrote ratio tables for r in {list(cfg.r)} to {cfg.out}")
    return 0


def cmd_validate(cfg):
    checks = validate.run_checks(fault=cfg.fault)
    failed = 0
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        print(f"{c.name:<28} measured={c.measured:.3e} bound={c.bound:.3e} {status}")
        failed += not c.passed
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


# each command and the config keys it reads, each of which a flag of its name overrides
_COMMANDS = {
    "build": (cmd_build, ("out", "grid", "width", "q")),
    "solve": (cmd_solve, ("out", "grid", "q")),
    "energy": (cmd_energy, ("out", "grid", "width", "q")),
    "sweep": (cmd_sweep, ("out", "r")),
    "validate": (cmd_validate, ()),
}


def main(argv=None):
    args = _make_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        return _COMMANDS[args.command][0](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FlatRibbonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
