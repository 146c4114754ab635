import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surfaceflow.grid import (
    GridSpec,
    ScalarField,
    VectorField,
    _index,
    coordinate_arrays,
    diff_t,
    diff_x1,
    diff_x1_adjoint_array,
    diff_x1_array,
    diff_x2,
    diff_x2_adjoint_array,
    diff_x2_array,
    diff2_x2_array,
)
from surfaceflow.geometry import build_geometry, flat_geometry
from surfaceflow.io import colorize
from surfaceflow.model import FlowProblem
from surfaceflow.solver import SolverConfig, SolverReport
from surfaceflow.synth import make_scene

from conftest import same_bits
from reference import (
    hessian,
    scatter_x1_adjoint,
    scatter_x2_adjoint,
    termwise_diff2_x2,
    termwise_x1,
    termwise_x2,
)


def field_from(spec, fn, origin=(0.0, 0.0)):
    return ScalarField.from_function(spec, fn, origin=origin)


class TestGridSpec:
    def test_valid(self):
        spec = GridSpec(5, 7, h=0.5, dt=2.0)
        assert spec.width == 5 and spec.height == 7
        # numpy integers are integers
        assert GridSpec(np.int64(5), np.int32(7)).shape == (7, 5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(width=2, height=5),
            dict(width=5, height=2),
            dict(width=5, height=5, h=0.0),
            dict(width=5, height=5, h=-1.0),
            dict(width=5, height=5, dt=0.0),
            dict(width=5, height=5, h=np.inf),
            dict(width=5, height=5, dt=np.inf),
            dict(width=5, height=5, dt=np.nan),
            dict(width=5.5, height=5),
            dict(width=5, height=5.0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            GridSpec(**kwargs)


class TestScalarField:
    def test_rejects_nonfinite(self):
        spec = GridSpec(3, 3)
        values = np.zeros((3, 3))
        values[1, 1] = np.nan
        with pytest.raises(ValueError):
            ScalarField(spec, values)
        values[1, 1] = np.inf
        with pytest.raises(ValueError):
            ScalarField(spec, values)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            ScalarField(GridSpec(3, 4), np.zeros((3, 3)))

    def test_values_are_read_only_copies(self):
        src = np.zeros((3, 3))
        field = ScalarField(GridSpec(3, 3), src)
        src[0, 0] = 5.0
        assert field.values[0, 0] == 0.0
        with pytest.raises(ValueError):
            field.values[0, 0] = 1.0

    def test_vector_field_requires_matching_specs(self):
        a = ScalarField.zeros(GridSpec(3, 3))
        b = ScalarField.zeros(GridSpec(4, 3))
        with pytest.raises(ValueError):
            VectorField(GridSpec(3, 3), a, b)


class TestFirstDerivatives:
    def test_constant_is_flat(self):
        f = ScalarField.constant(GridSpec(6, 5), 3.7)
        assert np.all(diff_x1(f).values == 0.0)
        assert np.all(diff_x2(f).values == 0.0)

    def test_linear_everywhere(self):
        # one-sided boundary stencils are also exact on linear fields
        spec = GridSpec(7, 6, h=1.0)
        f = field_from(spec, lambda x1, x2: x1)
        assert np.allclose(diff_x1(f).values, 1.0, atol=1e-14)
        g = field_from(spec, lambda x1, x2: x2)
        assert np.allclose(diff_x2(g).values, 1.0, atol=1e-14)

    def test_quadratic_interior_point(self):
        spec = GridSpec(7, 5, h=1.0)
        f = field_from(spec, lambda x1, x2: x1**2)
        # central difference of x^2 at x1 = 3 gives the exact derivative 6
        assert diff_x1(f).values[2, 3] == pytest.approx(6.0, abs=1e-12)

    def test_cubic_stencil_value(self):
        spec = GridSpec(5, 7, h=1.0)
        f = field_from(spec, lambda x1, x2: x2**3)
        # hand evaluation at x2 = 2: (3^3 - 1^3)/2 = 13
        assert diff_x2(f).values[2, 1] == pytest.approx(13.0, abs=1e-12)

    @given(
        a=st.floats(-10, 10, allow_nan=False),
        b=st.floats(-10, 10, allow_nan=False),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, a, b, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((5, 6))
        w = rng.standard_normal((5, 6))
        for op in (diff_x1_array, diff_x2_array):
            left = op(a * v + b * w, 1.0)
            right = a * op(v, 1.0) + b * op(w, 1.0)
            assert np.allclose(left, right, atol=1e-12, rtol=1e-12)

    def test_second_order_convergence(self):
        errors = []
        for n in (33, 65):
            spec = GridSpec(n, n, h=2.0 / (n - 1))
            f = field_from(spec, lambda x1, x2: np.sin(x1) * np.cos(x2), origin=(-1.0, -1.0))
            x1g, x2g = coordinate_arrays(spec, origin=(-1.0, -1.0))
            exact = np.cos(x1g) * np.cos(x2g)
            gap = np.abs(diff_x1(f).values - exact)[1:-1, 1:-1]
            errors.append(gap.max())
        assert errors[0] / errors[1] >= 3.8

    def test_adjoint_identity(self, rng):
        # <D v, s> == <v, D^T s> is the defining property of the adjoint
        v = rng.standard_normal((6, 7))
        s = rng.standard_normal((6, 7))
        for op, adj in (
            (diff_x1_array, diff_x1_adjoint_array),
            (diff_x2_array, diff_x2_adjoint_array),
        ):
            lhs = float(np.sum(op(v, 0.5) * s))
            rhs = float(np.sum(v * adj(s, 0.5)))
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)

    def test_match_sparse_oracle(self, rng):
        # every stencil and adjoint against kron-built matrices on a
        # non-square grid, boundary rows and columns included
        import scipy.sparse as sp
        from oracles import stencil_1d

        height, width, h = 11, 7, 0.5
        d1 = sp.kron(sp.identity(height), stencil_1d(width, h)).tocsr()
        d2 = sp.kron(stencil_1d(height, h), sp.identity(width)).tocsr()
        for _ in range(5):
            v = rng.standard_normal((height, width))
            for mine, mat in (
                (diff_x1_array, d1),
                (diff_x2_array, d2),
                (diff_x1_adjoint_array, d1.T),
                (diff_x2_adjoint_array, d2.T),
            ):
                ref = (mat @ v.ravel()).reshape(height, width)
                out = mine(v, h)
                assert out.shape == (height, width)
                assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


# each package stencil with its one-array reference from before stacking
STENCIL_REFERENCES = (
    (diff_x1_array, termwise_x1),
    (diff_x2_array, termwise_x2),
    (diff_x1_adjoint_array, scatter_x1_adjoint),
    (diff_x2_adjoint_array, scatter_x2_adjoint),
)


class TestStackedStencils:
    """The stencils on stacks and into output views are bitwise the
    one-array stencils, and the gathered adjoints the scattered ones."""

    @given(
        height=st.integers(3, 20),
        width=st.integers(3, 20),
        h=st.floats(0.01, 100.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(height=13, width=10, h=1.0, seed=0)
    @example(height=10, width=13, h=0.5, seed=1)
    @example(height=3, width=20, h=2.0, seed=2)
    @example(height=20, width=3, h=2.0, seed=3)
    @settings(max_examples=60, deadline=None)
    def test_match_one_array_references(self, height, width, h, seed):
        # draws from signed zeros, subnormals and normal values, so a
        # regrouped sum or a negation in place of 0 - x shows in the bits
        rng = np.random.default_rng(seed)
        pool = np.array([0.0, -0.0, 1e-320, -1e-320, 1.0, -1.0])
        v = np.where(
            rng.random((height, width)) < 0.5,
            rng.choice(pool, (height, width)),
            rng.standard_normal((height, width)),
        )
        for mine, ref in STENCIL_REFERENCES:
            assert same_bits(mine(v, h), ref(v, h)), mine.__name__

    @given(
        height=st.integers(3, 20),
        width=st.integers(3, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(height=13, width=10, seed=0)
    @example(height=10, width=13, seed=1)
    @settings(max_examples=40, deadline=None)
    def test_stack_matches_per_slice(self, height, width, seed):
        # a (2, H, W) stack, returned or written into every other plane of a
        # larger array (strided, as the energy gradient writes them), equals
        # the 2-D calls on each slice
        rng = np.random.default_rng(seed)
        stack = rng.standard_normal((2, height, width))
        h = float(rng.uniform(0.1, 3.0))
        for mine, _ in STENCIL_REFERENCES:
            per_slice = np.stack([mine(v, h) for v in stack])
            assert same_bits(mine(stack, h), per_slice), mine.__name__
            planes = np.full((2, 2, height, width), np.nan)
            out = mine(stack, h, out=planes[:, 1])
            assert np.shares_memory(out, planes)
            assert same_bits(planes[:, 1], per_slice), mine.__name__
            assert np.all(np.isnan(planes[:, 0]))

    @given(
        height=st.integers(3, 20),
        width=st.integers(3, 20),
        h=st.floats(0.01, 100.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(height=13, width=10, h=1.0, seed=0)
    @example(height=3, width=17, h=0.5, seed=1)
    @example(height=17, width=3, h=2.0, seed=2)
    @settings(max_examples=40, deadline=None)
    def test_second_difference(self, height, width, h, seed):
        # the stacked second difference on each slice, and on the swapped
        # axes for x1, is bitwise the one-array stencil on the array and on
        # its transpose; values as in test_match_one_array_references
        rng = np.random.default_rng(seed)
        pool = np.array([0.0, -0.0, 1e-320, -1e-320, 1.0, -1.0])
        stack = np.where(
            rng.random((2, height, width)) < 0.5,
            rng.choice(pool, (2, height, width)),
            rng.standard_normal((2, height, width)),
        )
        x2 = np.stack([termwise_diff2_x2(v, h) for v in stack])
        x1 = np.stack([termwise_diff2_x2(v.T, h).T for v in stack])
        assert same_bits(diff2_x2_array(stack, h), x2)
        assert same_bits(diff2_x2_array(stack.swapaxes(-1, -2), h).swapaxes(-1, -2), x1)
        for v, ref2, ref1 in zip(stack, x2, x1):
            assert same_bits(diff2_x2_array(v, h), ref2)
            assert same_bits(diff2_x2_array(v.swapaxes(-1, -2), h).swapaxes(-1, -2), ref1)


class TestDiffT:
    def test_identical_frames(self):
        f = ScalarField.constant(GridSpec(4, 4), 1.5)
        assert np.all(diff_t(f, f, 1.0).values == 0.0)

    def test_unit_step(self):
        spec = GridSpec(4, 4)
        a = ScalarField.constant(spec, 0.5)
        b = ScalarField(spec, a.values + 1.0)
        assert np.all(diff_t(a, b, 1.0).values == 1.0)

    def test_long_interval(self):
        spec = GridSpec(3, 3)
        a = ScalarField.constant(spec, 0.2)
        b = ScalarField.constant(spec, 0.8)
        out = diff_t(a, b, 240.0)
        assert np.allclose(out.values, 0.0025, rtol=0, atol=1e-18)

    def test_defaults_to_spec_dt(self):
        spec = GridSpec(3, 3, dt=4.0)
        a = ScalarField.constant(spec, 0.0)
        b = ScalarField.constant(spec, 2.0)
        assert np.all(diff_t(a, b).values == 0.5)

    def test_mismatched_specs(self):
        a = ScalarField.zeros(GridSpec(3, 3))
        b = ScalarField.zeros(GridSpec(3, 4))
        with pytest.raises(ValueError):
            diff_t(a, b, 1.0)

    @pytest.mark.parametrize("dt", [float("inf"), float("-inf"), float("nan"), 0.0, -1.0])
    def test_rejects_a_non_finite_or_non_positive_dt(self, dt):
        # an infinite dt would give an all -0.0 ft: a problem with no temporal data
        a = ScalarField.zeros(GridSpec(3, 3))
        b = ScalarField.constant(GridSpec(3, 3), 1.0)
        with pytest.raises(ValueError, match="dt"):
            diff_t(a, b, dt)


class TestHessian:
    def test_linear_is_zero(self):
        spec = GridSpec(6, 6)
        f = field_from(spec, lambda x1, x2: 2.0 * x1 - 3.0 * x2 + 1.0)
        for part in hessian(f):
            assert np.allclose(part.values, 0.0, atol=1e-13)

    def test_quadratic_bowl(self):
        spec = GridSpec(7, 7, h=1.0)
        f = field_from(spec, lambda x1, x2: (x1**2 + x2**2) / 2.0)
        d11, d12, d22 = hessian(f)
        inner = (slice(1, -1), slice(1, -1))
        assert np.allclose(d11.values[inner], 1.0, atol=1e-12)
        assert np.allclose(d22.values[inner], 1.0, atol=1e-12)
        assert np.allclose(d12.values[inner], 0.0, atol=1e-12)

    def test_mixed_term(self):
        spec = GridSpec(7, 7, h=1.0)
        f = field_from(spec, lambda x1, x2: x1 * x2)
        _, d12, _ = hessian(f)
        assert np.allclose(d12.values[1:-1, 1:-1], 1.0, atol=1e-12)


def _flat_problem(alpha):
    zero = ScalarField.zeros(GridSpec(4, 4))
    return FlowProblem(geom=flat_geometry(zero.spec), fx1=zero, fx2=zero, ft=zero, alpha=alpha)


# every positive finite real scalar the library takes: (the name its errors give,
# a call that passes it the one value)
POSITIVE_ENTRIES = {
    "GridSpec.h": ("h", lambda v: GridSpec(5, 5, h=v)),
    "GridSpec.dt": ("dt", lambda v: GridSpec(5, 5, dt=v)),
    "diff_t": ("dt", lambda v: diff_t(*[ScalarField.zeros(GridSpec(3, 3))] * 2, v)),
    "build_geometry.dt": ("dt", lambda v: build_geometry(ScalarField.zeros(GridSpec(3, 3)), dt=v)),
    "SolverConfig.tol": ("tol", lambda v: SolverConfig(tol=v)),
    "FlowProblem.alpha": ("alpha", _flat_problem),
    "colorize": ("max_magnitude", lambda v: colorize(np.ones((2, 2)), np.zeros((2, 2)), v)),
}


class TestPositiveRule:
    """One rule for every positive real scalar: a ``numbers.Real`` with
    0 < value < inf as a float, else a ValueError that names the argument."""

    @pytest.mark.parametrize("entry", POSITIVE_ENTRIES)
    @pytest.mark.parametrize(
        "value",
        # 10**400 compares below inf exactly but overflows a float, and 10**5000
        # has more digits than Python converts to a string
        [0, -1, float("nan"), float("inf"), 10**400, 10**5000, "1", np.array([1.0]),
         np.array([1e-6])],
        ids=["zero", "negative", "nan", "inf", "int-beyond-float", "int-beyond-str", "str",
             "array", "array-tol"],
    )
    def test_refused_with_the_argument_named(self, entry, value):
        name, call = POSITIVE_ENTRIES[entry]
        with pytest.raises(ValueError, match=rf"^{name} must be a positive finite real scalar"):
            call(value)

    @pytest.mark.parametrize("entry", POSITIVE_ENTRIES)
    @pytest.mark.parametrize("value", [2, np.int64(2), np.float32(0.5), np.float64(1e-6)])
    def test_numpy_scalars_pass(self, entry, value):
        POSITIVE_ENTRIES[entry][1](value)


def _report(iterations):
    return SolverReport(method="cg", converged=True, iterations=iterations, energy_initial=0.0,
                        energy_final=0.0, grad_inf_norm=0.0)


# every count the library takes: (the name its errors give, its floor, a call that
# passes it the one value); none of them renders, builds a field or solves
COUNT_ENTRIES = {
    "GridSpec.width": ("width", 3, lambda v: GridSpec(v, 3)),
    "GridSpec.height": ("height", 3, lambda v: GridSpec(3, v)),
    "make_scene.size": ("size", 3, lambda v: make_scene("flat-static", size=v)),
    "make_scene.frame_count": (
        "frame_count", 2, lambda v: make_scene("flat-static", size=9, frame_count=v)
    ),
    "make_scene.seed": ("seed", 0, lambda v: make_scene("flat-static", size=9, seed=v)),
    "SolverConfig.max_iter": ("max_iter", 1, lambda v: SolverConfig(max_iter=v)),
    "SolverReport.iterations": ("iterations", 0, _report),
}


class TestCountRule:
    """One rule for every count: an int, numpy ints included, from the count's
    floor to ``sys.maxsize``, else a ValueError that names the argument."""

    @pytest.mark.parametrize("entry", COUNT_ENTRIES)
    @pytest.mark.parametrize(
        "value, shown",
        # sys.maxsize + 1 is within the float range but beyond every numpy shape,
        # 10**400 is beyond the float range, and ±10**5000 has more digits than
        # Python converts to a string, so the message gives their bit lengths
        [(lambda least: least - 1, None),
         (lambda least: -(10**5000), "an int of 16610 bits"),
         (lambda least: sys.maxsize + 1, None),
         (lambda least: 10**400, "an int of 1329 bits"),
         (lambda least: 10**5000, "an int of 16610 bits")],
        ids=["below-floor", "minus-beyond-str", "maxsize-plus-1", "beyond-float", "beyond-str"],
    )
    def test_out_of_range_refused(self, entry, value, shown):
        name, least, call = COUNT_ENTRIES[entry]
        value = value(least)
        message = f"{name} must be at least {least} and at most {sys.maxsize}, got "
        with pytest.raises(ValueError, match=f"^{re.escape(message + (shown or repr(value)))}$"):
            call(value)

    @pytest.mark.parametrize("entry", COUNT_ENTRIES)
    @pytest.mark.parametrize(
        "value",
        [lambda least: 2.5, float, str, lambda least: None, lambda least: np.array([least])],
        ids=["fraction", "float", "str", "none", "array"],
    )
    def test_non_integer_refused(self, entry, value):
        name, least, call = COUNT_ENTRIES[entry]
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
            call(value(least))

    @pytest.mark.parametrize("entry", COUNT_ENTRIES)
    @pytest.mark.parametrize(
        "value",
        [lambda least: least, np.int64, np.int32, lambda least: sys.maxsize],
        ids=["floor", "int64", "int32", "maxsize"],
    )
    def test_floor_to_maxsize_accepted(self, entry, value):
        _, least, call = COUNT_ENTRIES[entry]
        call(value(least))

    @given(value=st.integers(), least=st.sampled_from([0, 1, 2, 3]))
    @example(value=sys.maxsize, least=0)
    @example(value=sys.maxsize + 1, least=0)
    @settings(max_examples=200, deadline=None)
    def test_index_returns_exactly_the_values_in_range(self, value, least):
        if least <= value <= sys.maxsize:
            assert _index("n", value, least=least) == value
        else:
            with pytest.raises(ValueError, match=f"^n must be at least {least}"):
                _index("n", value, least=least)
