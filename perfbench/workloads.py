"""Seeded inputs, jobs and output checks of the flatribbon benchmark.

A workload is an endless stream of jobs drawn from one seed.  Each job has
three steps: ``prepare`` writes its inputs (untimed), ``run`` makes the calls
into the package (timed), and ``check`` compares the outputs with a
reference (untimed, and run with tracing paused).

A stream drawn with ``jitter`` > 0 holds the same jobs with every length of
their inputs scaled by 1 + jitter: the same work, on inputs no earlier job
has seen, so that repeating a job reuses nothing a value-keyed cache could
hold.

The package is reached only through public entry points: ``flatribbon.cli.main``
for samples_build and module attributes of ``flatribbon.config``,
``flatribbon.ribbon``, ``flatribbon.angleivp`` and ``flatribbon.energy`` for
the library workloads.  Functions are looked up on their module at call time,
so the traced run sees every call.
"""

import contextlib
import csv
import io
import math
import os
from dataclasses import dataclass

import numpy as np

from flatribbon import angleivp, cli, config, curves, energy, frames, ribbon

# Tolerances the repository's tests already state.
ENERGY_ORACLE_TOL = 1e-6  # closed form vs quadrature, criterion 04
THETA_TOL = 1e-6  # IVP vs closed form, criteria 01 and 02
FAMILY_ENERGY_TOL = 1e-6  # limit energy vs case A / case B closed forms
FLATNESS_TOL = 1e-8  # flatness residual bound of `ribbon validate`

HELIX_WIDTH = 0.1  # the limit energy is linear in w, any w > 0 checks the same


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the jobs; FULL is what the benchmark measures."""

    grid: int = 200  # config `grid`: ribbon and width grids of knot_energy and samples_build
    energy_nodes: int = 101  # t nodes of the three knot energies (4k + 1)
    ivp_grid: int = 400  # RK4 steps of solved_rotation_field
    scalars_grid: int = 401  # spline nodes of the sampled base scalars
    limit_nodes: int = 201  # nodes of limit_energy on the rotated field (4k + 1)
    mesh_nt: int = 400  # README mesh
    mesh_nu: int = 9
    q_per_helix: int = 4  # consecutive jobs that share one helix and base field


FULL = Sizes()
TINY = Sizes(
    grid=100, energy_nodes=53, ivp_grid=200, scalars_grid=201, limit_nodes=53, mesh_nt=20, mesh_nu=5, q_per_helix=2
)


@dataclass
class Outcome:
    """What a timed run returned; ``failure`` is None for a clean run."""

    value: object = None
    failure: str | None = None
    message: str = ""


def format_number(x):
    return f"{float(x):.17g}"


def write_config(path, entries):
    with open(path, "w", newline="\n") as fh:
        for key, value in entries:
            fh.write(f"{key} = {value}\n")


def run_cli(argv):
    """Call ``flatribbon.cli.main`` in-process, keeping its console output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        first = err.getvalue().strip().splitlines()
        return Outcome(code, f"exit={code}", first[0] if first else "")
    return Outcome(code)


# --------------------------------------------------------------------------
# knot_energy: the steps of `ribbon energy` on a seeded torus knot with the
# torus normal.  The CLI command fixes the energies at 2001 nodes (10 s a job
# on a 2-vCPU Xeon host), so the job makes the command's library calls
# itself, with `energy_nodes` nodes.


class KnotEnergyJob:
    def __init__(self, R, rho, n, sizes):
        self.R, self.rho, self.n, self.sizes = R, rho, n, sizes

    def prepare(self, workdir):
        self.out = workdir
        self.config = os.path.join(workdir, "knot.cfg")
        write_config(
            self.config,
            [
                ("kind", "torus_knot"),
                ("R", format_number(self.R)),
                ("rho", format_number(self.rho)),
                ("n", self.n),
                ("normal", "torus_normal"),
                ("grid", self.sizes.grid),
                ("out", workdir),
            ],
        )

    def run(self):
        """cmd_energy of flatribbon.cli, with the energies at `energy_nodes` nodes."""
        cfg = config.parse_config(self.config)
        curve = config.build_curve(cfg)
        field = frames.RotatedNormalField(config.build_base_field(cfg, curve), 0.0)
        w_max = ribbon.max_regular_width(curve, field, grid_size=min(cfg.grid, 1001))
        w = 0.1 if np.isinf(w_max) else 0.5 * w_max
        rib = ribbon.construct_ribbon(curve, field, w, grid_size=min(cfg.grid, 2001))
        n_t = self.sizes.energy_nodes
        reports = [
            ("closed", energy.bending_energy_closed(rib, n_t=n_t)),
            ("quadrature", energy.bending_energy_quadrature(rib, n_t=n_t)),
            ("limit", energy.limit_energy(curve, field, w, n_t=n_t)),
        ]
        config.write_csv(
            os.path.join(cfg.out, "energy.csv"),
            ("label", "q", "w", "value", "method", "err_estimate"),
            [(label, cfg.q, r.width, r.value, r.method, r.error_estimate) for label, r in reports],
        )
        return Outcome(0)

    def check(self, outcome):
        return check_energy_csv(os.path.join(self.out, "energy.csv"))


def check_energy_csv(path):
    """Closed form and quadrature agree; all three energies finite and positive."""
    with open(path, newline="") as fh:
        values = {row["label"]: float(row["value"]) for row in csv.DictReader(fh)}
    if set(values) != {"closed", "quadrature", "limit"}:
        return False, f"energy.csv labels {sorted(values)}"
    if not all(math.isfinite(v) and v > 0.0 for v in values.values()):
        return False, f"energies not finite and positive: {values}"
    rel = abs(values["closed"] - values["quadrature"]) / values["closed"]
    if rel > ENERGY_ORACLE_TOL:
        return False, f"closed vs quadrature relative gap {rel:.3e} > {ENERGY_ORACLE_TOL:g}"
    return True, ""


def knot_jobs(rng, sizes, scale):
    while True:
        R = rng.uniform(1.0, 3.0)
        rho = R * rng.uniform(0.3, 0.6)
        n = int(rng.integers(2, 6))
        yield KnotEnergyJob(scale * R, scale * rho, n, sizes)


# --------------------------------------------------------------------------
# helix_q_family: solved_rotation_field + limit_energy over a family of q.


class HelixCase:
    """One helix with its principal normal, shared by consecutive jobs."""

    def __init__(self, a, b):
        self.a, self.b = a, b
        self.curve = self.base = None
        self._psi = None

    def build(self):
        self.curve = curves.make_helix(curves.HelixParams(self.a, self.b))
        self.base = frames.PrincipalNormalField(self.curve)

    def psi(self):
        if self._psi is None:
            self._psi = angleivp.integrated_torsion(self.curve)
        return self._psi


class HelixQJob:
    """Rotate the principal normal by the IVP solution from theta(0) = q.

    ``same_angle`` selects the same-angle form (phi=None); otherwise the ruling
    angle is prescribed as pi/2.
    """

    def __init__(self, case, q, same_angle, sizes):
        self.case, self.q, self.same_angle, self.sizes = case, q, same_angle, sizes

    def prepare(self, workdir):
        pass

    def run(self):
        case = self.case
        if case.base is None:
            case.build()  # the first job of each helix pays for curve and base field
        phi = None if self.same_angle else (lambda t: 0.5 * np.pi)
        field, solution = angleivp.solved_rotation_field(
            case.base, self.q, grid_size=self.sizes.ivp_grid, scalars_grid=self.sizes.scalars_grid, phi=phi
        )
        report = energy.limit_energy(case.curve, field, HELIX_WIDTH, n_t=self.sizes.limit_nodes)
        return Outcome((solution.ts, solution.values, report.value))

    def reference(self):
        """(exact theta(t), exact limit energy) from the closed forms."""
        case, q, n_t = self.case, self.q, self.sizes.limit_nodes
        if self.same_angle:
            theta = angleivp.closed_form_case_b(q, case.psi())
            return theta, energy.case_b_energy(case.curve, q, HELIX_WIDTH, n_t=n_t)
        theta0 = angleivp.closed_form_helix_pi2(case.a, case.b)
        slope = float(theta0(1.0))
        case_a_field = frames.RotatedNormalField(case.base, theta0, lambda t: slope)
        energy_ref = energy.case_a_energy(case.curve, case_a_field, q, HELIX_WIDTH, n_t=n_t)
        return (lambda t: q + theta0(t)), energy_ref

    def check(self, outcome):
        ts, values, value = outcome.value
        theta, energy_ref = self.reference()
        return check_family(ts, values, theta, value, energy_ref)


def check_family(ts, values, theta, value, energy_ref):
    err = float(np.max(np.abs(np.asarray(values) - theta(np.asarray(ts)))))
    if not err <= THETA_TOL:
        return False, f"theta error {err:.3e} > {THETA_TOL:g}"
    rel = abs(value - energy_ref) / abs(energy_ref)
    if not rel <= FAMILY_ENERGY_TOL:
        return False, f"limit energy relative error {rel:.3e} > {FAMILY_ENERGY_TOL:g}"
    return True, ""


def helix_jobs(rng, sizes, scale):
    index = 0
    while True:
        case = HelixCase(scale * rng.uniform(0.5, 2.0), scale * rng.uniform(0.25, 2.0))
        for _ in range(sizes.q_per_helix):
            q = rng.uniform(0.0, 2.0 * np.pi)
            yield HelixQJob(case, q, same_angle=bool(index % 2), sizes=sizes)
            index += 1


# --------------------------------------------------------------------------
# samples_build: `ribbon build` on a sampled curve with the rotation-minimizing field.


def perturbed_knot_samples(rng, scale):
    """Rows (t, x, y, z) of a torus knot with a smooth random perturbation.

    t is the knot's angle parameter; the perturbation is three Fourier modes
    per axis with amplitude 0.05 rho.  The row count is drawn from 41..241.
    The points are scaled by ``scale``.
    """
    R = rng.uniform(1.0, 3.0)
    rho = R * rng.uniform(0.3, 0.6)
    n = int(rng.integers(2, 6))
    rows = int(rng.integers(41, 242))
    t = np.linspace(0.0, 2.0 * np.pi, rows)
    r = R + rho * np.cos(n * t)
    points = np.stack([r * np.cos(t), r * np.sin(t), rho * np.sin(n * t)], axis=1)
    for k in (1, 2, 3):
        amplitude = 0.05 * rho * rng.standard_normal(3)
        phase = rng.uniform(0.0, 2.0 * np.pi, 3)
        points += amplitude * np.sin(k * t[:, None] + phase)
    return np.column_stack([t, scale * points])


class SamplesBuildJob:
    def __init__(self, samples, sizes):
        self.samples, self.sizes = samples, sizes

    def prepare(self, workdir):
        self.out = workdir
        samples_path = os.path.join(workdir, "curve.csv")
        with open(samples_path, "w", newline="\n") as fh:
            fh.write("t,x,y,z\n")
            for row in self.samples:
                fh.write(",".join(format_number(x) for x in row) + "\n")
        self.config = os.path.join(workdir, "samples.cfg")
        write_config(
            self.config,
            [
                ("kind", "samples"),
                ("csv", samples_path),
                ("normal", "rotation_minimizing"),
                ("grid", self.sizes.grid),
                ("mesh_nt", self.sizes.mesh_nt),
                ("mesh_nu", self.sizes.mesh_nu),
                ("out", workdir),
            ],
        )

    def run(self):
        return run_cli(["build", "--config", self.config])

    def check(self, outcome):
        ok, detail = check_obj(os.path.join(self.out, "ribbon_q0.obj"), self.sizes.mesh_nt, self.sizes.mesh_nu)
        if not ok:
            return ok, detail
        return check_residuals_csv(os.path.join(self.out, "residuals_q0.csv"))


def check_obj(path, n_t, n_u):
    counts = {"v": 0, "vn": 0, "f": 0}
    with open(path) as fh:
        for line in fh:
            tag = line.split(" ", 1)[0]
            if tag in counts:
                counts[tag] += 1
    want = {"v": n_t * n_u, "vn": n_t, "f": 2 * (n_t - 1) * (n_u - 1)}
    if counts != want:
        return False, f"OBJ element counts {counts}, expected {want}"
    return True, ""


def check_residuals_csv(path):
    with open(path, newline="") as fh:
        residuals = [float(row[key]) for row in csv.DictReader(fh) for key in ("ruling_in_plane", "tangent_plane")]
    if not residuals or not all(r <= FLATNESS_TOL for r in residuals):  # a NaN fails too
        return False, f"flatness residuals up to {max(residuals, default=math.nan):.3e} (bound {FLATNESS_TOL:g})"
    return True, ""


def samples_jobs(rng, sizes, scale):
    while True:
        yield SamplesBuildJob(perturbed_knot_samples(rng, scale), sizes)


_STREAMS = {"knot_energy": knot_jobs, "helix_q_family": helix_jobs, "samples_build": samples_jobs}
WORKLOADS = tuple(_STREAMS)


def job_stream(workload, seed, sizes=FULL, jitter=0.0):
    """The seeded, endless job sequence of a workload, its lengths scaled by 1 + jitter."""
    return _STREAMS[workload](np.random.default_rng(seed), sizes, 1.0 + jitter)
