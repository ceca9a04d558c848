"""The arc-length table: s(x) in Hermite form on the node speeds, inverted from a linear guess.

``arc_length_reparametrize`` evaluates |c'| at every raw node for the
cumulative Simpson table, so those speeds are the table's slopes and no
spline is solved for it.  ``raw_parameter`` starts Newton from the linear
interpolant of the same table.  The torus knot gives its speed in closed
form, so neither its table nor its Newton steps evaluate c'.  The sample
curves come from the benchmark's ``perturbed_knot_samples`` generator;
``perfbench/workloads.py`` is loaded by path and only read.
"""

import importlib.util
import os

import numpy as np
import pytest

from flatribbon import curves, numerics
from flatribbon.curves import CurveSpec, TorusKnotParams, curve_from_samples, make_torus_knot
from flatribbon.errors import ToleranceNotMet
from flatribbon.numerics import rownorm

WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def perturbed_knot_curves(seeds):
    """(rows, curve) of the sample curves of ``seeds`` whose arc-length table meets its tolerance."""
    samples = load_workloads().perturbed_knot_samples
    accepted = []
    for seed in seeds:
        rows = samples(np.random.default_rng(seed), 1.0)
        try:
            accepted.append((rows, curve_from_samples(rows[:, 0], rows[:, 1:])))
        except ToleranceNotMet:
            continue
    return accepted


@pytest.fixture(scope="module")
def sample_curves():
    return perturbed_knot_curves(range(200))


def test_two_newton_steps_reach_the_residual_bound(sample_curves, monkeypatch):
    assert len(sample_curves) >= 100
    monkeypatch.setattr(curves, "NEWTON_STEPS", 2)
    rng = np.random.default_rng(5)
    for _, curve in sample_curves:
        ts = np.concatenate([curve.grid(2001), rng.uniform(0.0, curve.length, 1000)])
        x = curve.raw_parameter(ts)  # raises ToleranceNotMet above 1e-12 L
        assert np.max(np.abs(curve._s_of_raw(x) - ts)) <= 1e-12 * curve.length


def counted_table_reads(monkeypatch, curve):
    """Every call of the curve's s(x) table from now on, as the shape of its argument."""
    calls, table = [], curve._s_of_raw

    def counted(x, nu=0):
        calls.append(np.shape(x))
        return table(x, nu)

    monkeypatch.setattr(curve, "_s_of_raw", counted)
    return calls


@pytest.mark.parametrize("name", ["knot", "samples"])
def test_newton_stops_at_rounding_within_three_table_reads(name, sample_curves, monkeypatch):
    # the misses that decide the next step are the ones checked at the end: at most the guess and two steps are read
    rng = np.random.default_rng(6)
    if name == "knot":
        curves_ = [make_torus_knot(TorusKnotParams(R, f * R, n)) for R, f, n in ((2.0, 0.5, 3), (1.3, 0.35, 5))]
    else:
        assert len(sample_curves) >= 100
        curves_ = [curve for _, curve in sample_curves]
    for curve in curves_:
        table = curve._s_of_raw
        for ts in (curve.grid(201), curve.grid(2001), rng.uniform(0.0, curve.length, 1000), 0.37 * curve.length):
            calls = counted_table_reads(monkeypatch, curve)
            x = curve.raw_parameter(ts)
            miss = np.max(np.abs(table(x) - ts))
            assert 1 <= len(calls) <= 3 and miss <= curves.NEWTON_ROUNDING * curve.length <= 1e-12 * curve.length
            if np.ndim(ts):  # each x stops on its own miss, so a part of the batch inverts to the same bits
                assert np.array_equal(curve.raw_parameter(ts[3:10].copy()), x[3:10])


def test_newton_takes_at_most_newton_steps_before_it_gives_up(monkeypatch):
    # a NaN table never reaches rounding: the cap's steps are taken and the last miss fails the check
    line = CurveSpec(lambda x: np.stack([x, 0.0 * x, 0.0 * x], axis=-1), (0.0, 1.0))
    nodes = np.linspace(0.0, 1.0, 11)
    curve = curves.ArcLengthCurve(line, 1.0, raw_nodes=nodes, s_table=nodes, speeds=np.full(11, np.nan))
    calls = counted_table_reads(monkeypatch, curve)
    with pytest.raises(ToleranceNotMet):
        curve.raw_parameter(np.array([0.25, 0.5]))
    assert len(calls) == curves.NEWTON_STEPS + 1


def counted_spline_slopes(monkeypatch):
    calls = []
    original = numerics.spline_slopes

    def counted(x, y):
        calls.append(len(x))
        return original(x, y)

    monkeypatch.setattr(numerics, "spline_slopes", counted)
    return calls


def test_torus_knot_solves_no_spline(monkeypatch):
    calls = counted_spline_slopes(monkeypatch)
    make_torus_knot(TorusKnotParams(grid_size=401))
    assert calls == []


def test_sampled_curve_solves_one_spline(monkeypatch, sample_curves):
    rows = sample_curves[0][0]
    calls = counted_spline_slopes(monkeypatch)
    curve_from_samples(rows[:, 0], rows[:, 1:])
    assert calls == [len(rows)]  # the curve through the samples; the arc-length table takes none


@pytest.mark.parametrize("name", ["knot", "samples"])
def test_table_holds_the_node_values_and_speeds(name, sample_curves):
    curve = make_torus_knot(TorusKnotParams(grid_size=401)) if name == "knot" else sample_curves[0][1]
    nodes, table = curve._raw_nodes, curve._s_of_raw
    # every node but the last starts a piece, whose value and slope are stored as given
    assert np.array_equal(table(nodes[:-1]), curve._s_table[:-1])
    assert np.array_equal(table(nodes[:-1], 1), curve.spec.speed(nodes)[:-1])
    # the last node is the end of the last piece, reached to rounding
    assert abs(table(nodes[-1]) - curve.length) <= 1e-14 * curve.length
    assert abs(table(nodes[-1], 1) - curve.spec.speed(nodes[-1])) <= 1e-12 * curve.spec.speed(nodes[-1])


def test_closed_form_knot_speed_is_the_norm_of_the_velocity():
    rng = np.random.default_rng(20)
    eps = np.finfo(float).eps
    for _ in range(200):
        R = 10.0 ** rng.uniform(-3.0, 3.0)
        knot = make_torus_knot(TorusKnotParams(R, rng.uniform(0.05, 0.95) * R, int(rng.integers(1, 8))))
        phi = rng.uniform(0.0, 2.0 * np.pi, 64)
        speed, norm = knot.spec.speed(phi), rownorm(knot.spec.jet(phi)[0])
        assert speed.shape == phi.shape and np.all(np.abs(speed - norm) <= 4 * eps * norm)
        scalar = knot.spec.speed(float(phi[0]))
        assert np.shape(scalar) == () and scalar == speed[0]


def test_knot_table_and_newton_evaluate_no_derivative_map(monkeypatch):
    # the speed map serves the table and the Newton steps; a jet calls the jet map once, whose trig is taken once
    calls, trig = [], []
    original, original_trig = CurveSpec.jet, curves._knot_trig

    def counted(self, x):
        calls.append(np.shape(x))
        return original(self, x)

    def counted_trig(n, phi):
        trig.append(np.shape(phi))
        return original_trig(n, phi)

    monkeypatch.setattr(CurveSpec, "jet", counted)
    monkeypatch.setattr(curves, "_knot_trig", counted_trig)
    knot = make_torus_knot(TorusKnotParams(grid_size=401))
    knot.raw_parameter(knot.grid(2001))
    knot.raw_parameter(0.37 * knot.length)
    assert calls == [] and trig == []
    knot.jet(knot.grid(201))
    assert calls == [(201,)] and trig == [(201,)]
