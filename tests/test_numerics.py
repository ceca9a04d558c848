import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatribbon.numerics import (
    arccot,
    central_difference,
    cross,
    cumulative_simpson_uniform,
    odd_node_count,
    prefix_products,
    rowdot,
    rownorm,
    _simpson_weights,
    simpson_uniform,
    stencil_difference,
)


def test_arccot_special_values():
    assert arccot(0.0) == pytest.approx(np.pi / 2, abs=1e-15)
    assert arccot(1.0) == pytest.approx(np.pi / 4, abs=1e-15)
    assert arccot(-1.0) == pytest.approx(3 * np.pi / 4, abs=1e-15)


@given(st.floats(-1e6, 1e6, allow_nan=False))
@settings(deadline=None)
def test_arccot_range_and_inverse(x):
    a = float(arccot(x))
    assert 0.0 < a < np.pi
    # cot(arccot(x)) == x
    assert np.cos(a) / np.sin(a) == pytest.approx(x, abs=1e-6 * max(1.0, abs(x)))


def test_arccot_continuous_through_zero():
    # the naive arctan(1/x) branch jumps by pi at x = 0; arccot must not
    eps = 1e-12
    assert abs(arccot(eps) - arccot(-eps)) < 1e-10


def test_odd_node_count():
    # 4k+1 nodes, so that every other node is a Simpson grid too
    assert odd_node_count(1) == 5
    assert odd_node_count(4) == 5
    assert [odd_node_count(n) for n in (6, 7, 8, 9)] == [9, 9, 9, 9]
    assert odd_node_count(1001) == 1001
    assert odd_node_count(2000) == 2001
    assert odd_node_count(2003) == 2005
    for n in range(1, 50):
        m = odd_node_count(n)
        simpson_uniform(np.ones(m)[::2], 0.1)
        assert m % 4 == 1 and m >= n and m - 4 < max(n, 5)


def test_simpson_exact_for_cubics():
    # Simpson integrates polynomials up to degree 3 exactly
    xs = np.linspace(0.0, 2.0, 11)
    vals = 3 * xs**3 - xs**2 + 5 * xs - 7
    exact = 3 * 16 / 4 - 8 / 3 + 5 * 2 - 14
    assert simpson_uniform(vals, xs[1] - xs[0]) == pytest.approx(exact, abs=1e-13)


def test_simpson_rejects_even_node_counts():
    with pytest.raises(ValueError):
        simpson_uniform(np.ones(4), 0.1)


def test_simpson_fourth_order_convergence():
    def integral(n):
        xs = np.linspace(0.0, np.pi, n)
        return simpson_uniform(np.sin(xs), xs[1] - xs[0])

    e1 = abs(integral(51) - 2.0)
    e2 = abs(integral(101) - 2.0)
    assert e1 / e2 > 12.0  # ~16 for an O(h^4) rule


def test_cumulative_simpson_matches_antiderivative():
    xs = np.linspace(0.0, 3.0, 301)
    table = cumulative_simpson_uniform(np.exp(xs), xs[1] - xs[0])
    assert table[0] == 0.0
    assert np.max(np.abs(table - (np.exp(xs) - 1.0))) < 1e-8


def reference_simpson(values, h):
    """``simpson_uniform`` as it was when it built its weights on every call."""
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    weights = np.ones(n)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    total = h / 3.0 * np.vecdot(values, weights)
    return float(total) if values.ndim == 1 else total


def reference_cumulative_simpson(values, h):
    """``cumulative_simpson_uniform`` as it was when it formed both 3-point formulas on every interval."""
    f = np.asarray(values, dtype=float)
    n = f.shape[-1]
    forward = h / 3 * (5 * f[..., :-2] / 4 + 2 * f[..., 1:-1] - f[..., 2:] / 4)  # interval i
    backward = h / 3 * (5 * f[..., 2:] / 4 + 2 * f[..., 1:-1] - f[..., :-2] / 4)  # interval i + 1
    parts = np.empty(f.shape[:-1] + (n,))
    parts[..., 0] = 0.0
    parts[..., 1:-1:2] = forward[..., ::2]
    parts[..., 2::2] = backward[..., ::2]
    parts[..., -1] = backward[..., -1]
    return np.cumsum(parts, axis=-1)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 101, 1001, 4001])
@pytest.mark.parametrize("shape", [(), (3,)])
def test_simpson_rules_are_their_reference_bit_for_bit(n, shape):
    # kept weights and only the kept intervals change no bit, on one row or on a 2-D stack of rows
    rng = np.random.default_rng(n)
    values = np.exp(3.0 * rng.standard_normal(shape + (n,))) * rng.choice([-1.0, 1.0], shape + (n,))
    h = 0.37
    assert np.array_equal(cumulative_simpson_uniform(values, h), reference_cumulative_simpson(values, h))
    if n % 2:
        got = simpson_uniform(values, h)
        assert np.array_equal(got, reference_simpson(values, h)) and type(got) is type(reference_simpson(values, h))


def test_simpson_weights_are_kept_read_only():
    weights = _simpson_weights(101)
    assert _simpson_weights(101) is weights
    assert np.array_equal(weights[:4], [1.0, 4.0, 2.0, 4.0]) and weights[-1] == 1.0
    with pytest.raises(ValueError):
        weights[0] = 2.0


@pytest.mark.parametrize("order", [1, 2, 3])
def test_central_difference_exact_on_low_degree_polynomials(order):
    # a 4th-order stencil must differentiate degree-4 polynomials exactly
    coeffs = np.array([0.3, -1.2, 0.7, 2.0, -0.5])
    p = np.polynomial.Polynomial(coeffs)
    d = p.deriv(order)
    x = 0.37
    got = central_difference(p, x, order, 0.1)
    assert got == pytest.approx(d(x), abs=1e-9)


def test_central_difference_fourth_order_accuracy():
    f = np.sin
    errs = []
    for h in (0.1, 0.05):
        errs.append(abs(central_difference(f, 1.0, 1, h) - np.cos(1.0)))
    assert errs[0] / errs[1] > 12.0


def test_central_difference_vector_valued():
    f = lambda x: np.array([np.cos(x), np.sin(x), x**2])
    got = central_difference(f, 0.5, 1, 0.01)
    want = np.array([-np.sin(0.5), np.cos(0.5), 1.0])
    assert np.max(np.abs(got - want)) < 1e-9


def test_central_difference_rejects_bad_order():
    with pytest.raises(ValueError):
        central_difference(np.sin, 0.0, 4, 0.1)


def test_stencil_difference_matches_central_difference():
    # one table of samples at x + k h, k = -3..3, gives every order of central_difference
    x, h = np.array([0.3, 1.1]), 0.01
    table = np.sin(x[:, None] + np.arange(-3, 4) * h)
    for order in (1, 2, 3):
        got, want = stencil_difference(table, order, h), central_difference(np.sin, x, order, h)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 / h**order)  # rounding of one sum


def test_prefix_products_are_running_products_up_to_positive_factors(rng):
    steps = np.eye(2)[..., None] + 0.3 * rng.normal(size=(2, 2, 37))
    got = prefix_products(steps)
    running = np.eye(2)
    for k in range(steps.shape[-1]):
        running = steps[..., k] @ running
        ratio = got[..., k] / running
        assert np.all(ratio > 0.0)
        np.testing.assert_allclose(ratio, ratio[0, 0], rtol=1e-12)
        assert np.max(np.abs(got[..., k])) == 1.0  # the last pass's rescale


def reference_scan(m, rescale):
    """The Hillis-Steele scan; with ``rescale``, every product is divided by its largest |entry| after every pass."""
    p = np.array(m, dtype=float)
    d = 1
    while d < p.shape[-1]:
        p[..., d:] = np.einsum("ij...,jk...->ik...", p[..., d:], p[..., :-d])
        if rescale:
            p /= np.max(np.abs(p), axis=(0, 1))
        d *= 2
    return p


def hyperbolic_steps(a=40.0, b=0.3, c=0.1, length=40.0, n=2000):
    """The README's hyperbolic flow: n RK4 step matrices of (p, r)' = G (p, r), G = 1/2 [[a, b + c], [b - c, -a]]."""
    hg = 0.5 * length / n * np.array([[a, b + c], [b - c, -a]])
    step = np.eye(2) + hg @ (np.eye(2) + hg @ (np.eye(2) + hg @ (np.eye(2) + hg / 4) / 3) / 2)
    return np.repeat(step[..., None], n, axis=-1)


def huge_positive_steps():
    """4,096 positive matrices with entries up to 2^100: the products overflow without a rescale."""
    rng = np.random.default_rng(36)
    return rng.uniform(0.5, 1.0, size=(2, 2, 4096)) * 2.0 ** rng.integers(0, 101, size=4096)


@pytest.mark.parametrize("steps", [hyperbolic_steps(), huge_positive_steps()], ids=["hyperbolic", "2^100"])
def test_rescale_cadence_keeps_the_products_finite_and_their_directions(steps):
    # rescaled after the first, every third and the last pass, the products match the per-pass rescale up to
    # positive factors: both end with a largest |entry| of 1, so the factor is 1 up to rounding
    with np.errstate(all="ignore"):
        assert not np.all(np.isfinite(reference_scan(steps, rescale=False)))
    got, want = prefix_products(steps), reference_scan(steps, rescale=True)
    assert np.all(np.isfinite(got))
    assert np.all(np.max(np.abs(got), axis=(0, 1)) == 1.0)
    factor = np.sum(got * want, axis=(0, 1)) / np.sum(want * want, axis=(0, 1))
    assert np.all(factor > 0.0)
    assert np.max(np.abs(got - factor * want)) <= 1e-14
    assert np.max(np.abs(factor - 1.0)) <= 1e-14


def test_prefix_products_take_batch_axes():
    steps = np.stack([np.eye(2) * 2.0, [[0.0, -1.0], [1.0, 0.0]]], axis=-1)  # (2, 2, 2): two matrices
    batch = np.stack([steps, steps[..., ::-1]], axis=2)  # (2, 2, 2 runs, 2 steps)
    got = prefix_products(batch)
    np.testing.assert_array_equal(got[:, :, 0, 1], [[0.0, -1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(got[:, :, 1, 0], [[0.0, -1.0], [1.0, 0.0]])


def test_prefix_products_scan_a_c_ordered_copy():
    steps = np.random.default_rng(7).normal(size=(2000, 3, 3)).T  # (3, 3, 2000) in the transposed layout, its last axis strided
    assert not steps.flags.c_contiguous
    got = prefix_products(steps)
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(got, prefix_products(np.ascontiguousarray(steps)))


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "shape_a,shape_b",
    [((3,), (3,)), ((7, 3), (7, 3)), ((4, 5, 3), (4, 5, 3)), ((4, 1, 3), (1, 5, 3)), ((3,), (7, 3))],
)
def test_cross_is_bitwise_np_cross(rng, shape_a, shape_b):
    a, b = rng.normal(size=shape_a), rng.normal(size=shape_b)
    assert_same_bits(cross(a, b), np.cross(a, b))
    assert_same_bits(cross(b, a), np.cross(b, a))


@pytest.mark.parametrize("s", [1, 2, 4])
def test_cross_on_strided_read_only_views(rng, s):
    # the kept frame tables are read-only, and a coarser grid reads every s-th row of one
    table = rng.normal(size=(41, 2, 3))
    table.flags.writeable = False
    a, b = table[::s, 0], table[::s, 1]
    assert_same_bits(cross(a, b), np.cross(a, b))


def test_cross_with_nan_and_inf_entries():
    a = np.array([[np.nan, 1.0, 2.0], [np.inf, 0.0, 1.0], [1.0, -np.inf, 0.0], [np.inf, np.inf, 1.0]])
    b = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, np.inf], [-np.inf, 2.0, 0.0], [np.inf, -np.inf, 0.0]])
    with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf
        assert_same_bits(cross(a, b), np.cross(a, b))


@pytest.mark.parametrize("shape_a,shape_b", [((3,), (3,)), ((1000, 3), (1000, 3)), ((4, 1, 3), (1, 5, 3)), ((3,), (7, 3))])
def test_rowdot_is_np_vecdot_within_two_ulp(rng, shape_a, shape_b):
    # three column products summed in order against numpy's per-row dot: both within rounding of the exact sum
    a = rng.normal(size=shape_a) * 10.0 ** rng.uniform(-5.0, 5.0, size=shape_a[:-1] + (1,))
    b = rng.normal(size=shape_b)
    got, want = rowdot(a, b), np.vecdot(a, b)
    assert np.shape(got) == np.shape(want)
    assert np.all(np.abs(got - want) <= 2.0 * np.finfo(float).eps * np.sum(np.abs(a * b), axis=-1))
    assert np.array_equal(rownorm(a), np.sqrt(rowdot(a, a)))


def test_rowdot_has_the_nan_and_inf_pattern_of_np_vecdot():
    # every row of 3 x 3 entries from zeros, subnormals, a tiny normal, infinities, NaN and 1.5
    entries = [0.0, -0.0, 5e-324, -2.2e-308, np.inf, -np.inf, np.nan, 1.5]
    rows = np.array(list(itertools.product(entries, repeat=6)))
    with np.errstate(invalid="ignore", under="ignore"):  # inf * 0, inf - inf and subnormal products
        got, want = rowdot(rows[:, :3], rows[:, 3:]), np.vecdot(rows[:, :3], rows[:, 3:])
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(np.isinf(got), np.isinf(want))
    assert np.array_equal(got[np.isinf(got)], want[np.isinf(got)])


@pytest.mark.parametrize("order", [1, 2, 3])
def test_stencil_difference_is_central_difference_bit_for_bit(order):
    # the same samples summed in stencil order: from the 7-point table, from the order's own points, in any layout
    x, h = np.linspace(0.3, 1.1, 9), 0.01
    f = lambda t: np.stack([np.sin(t), np.cos(3.0 * t), t**3], axis=-1)
    want = central_difference(f, x, order, h)
    table = np.moveaxis(f(x[:, None] + np.arange(-3, 4) * h), -1, -2)  # (9, 3, 7), k last
    own = {1: [1, 2, 4, 5], 2: [1, 2, 3, 4, 5], 3: [0, 1, 2, 4, 5, 6]}[order]
    for values in (table, np.ascontiguousarray(table), table[..., own], np.asfortranarray(table[..., own])):
        assert_same_bits(stencil_difference(values, order, h), want)
