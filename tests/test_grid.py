import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcflab import shapes
from mcflab.grid import (
    GridSpec,
    Immersion,
    InvalidAxisError,
    ShapeError,
    SymmetryAction,
    _curve_taps,
    apply_symmetry,
    partial,
    partial_and_second,
    read_immersion,
    reflection_permutation,
    second_partial,
    shift_permutation,
    write_immersion,
)

from conftest import identity_symmetry, stencil_symbols


class TestGridSpec:
    def test_spacing_times_resolution_is_two_pi(self):
        g = GridSpec(1, 64)
        assert g.spacing * g.resolution == pytest.approx(2 * np.pi, abs=1e-15)

    @pytest.mark.parametrize("m", [0, 3])
    def test_rejects_bad_dimension(self, m):
        with pytest.raises(ValueError):
            GridSpec(m, 16)

    def test_rejects_small_resolution(self):
        with pytest.raises(ValueError):
            GridSpec(1, 4)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            GridSpec(1, 16, derivative_order=3)


class TestPartial:
    def test_constant_field_has_zero_derivative(self):
        g = GridSpec(1, 8)
        assert np.abs(partial(g, np.ones(8), 0)).max() == 0.0

    def test_cos_mode_matches_stencil_symbol(self):
        g = GridSpec(1, 8)
        (theta,) = g.coordinates()
        s1, _ = stencil_symbols(g)
        got = partial(g, np.cos(theta), 0)
        assert np.allclose(got, -np.sin(theta) * s1, atol=1e-14)

    @given(a=st.floats(-10, 10), b=st.floats(-10, 10))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a, b):
        g = GridSpec(1, 16)
        rng = np.random.default_rng(7)
        f1 = rng.standard_normal(16)
        f2 = rng.standard_normal(16)
        lhs = partial(g, a * f1 + b * f2, 0)
        rhs = a * partial(g, f1, 0) + b * partial(g, f2, 0)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_fourier_symbol_low_modes(self):
        g = GridSpec(1, 64)
        (theta,) = g.coordinates()
        h = g.spacing
        for k in range(1, g.resolution // 4 + 1):
            got = partial(g, np.sin(k * theta), 0)
            want = k * (np.sin(k * h) / (k * h)) * np.cos(k * theta)
            assert np.allclose(got, want, atol=1e-11), f"mode {k}"

    def test_derivative_has_zero_mean(self):
        g = GridSpec(2, 16)
        rng = np.random.default_rng(3)
        f = rng.standard_normal(g.shape)
        for axis in range(2):
            assert abs(partial(g, f, axis).mean()) < 1e-12

    def test_invalid_axis(self):
        g = GridSpec(1, 8)
        with pytest.raises(InvalidAxisError):
            partial(g, np.ones(8), 1)


class TestSecondPartial:
    def test_cos_mode_symbol_at_n8(self):
        g = GridSpec(1, 8)
        (theta,) = g.coordinates()
        _, s2 = stencil_symbols(g)
        assert s2 == pytest.approx(0.9496403, abs=1e-6)
        got = second_partial(g, np.cos(theta), 0, 0)
        assert np.allclose(got, -np.cos(theta) * s2, atol=1e-14)

    def test_constant_field(self):
        g = GridSpec(2, 8)
        assert np.abs(second_partial(g, np.ones(g.shape), 0, 1)).max() == 0.0

    def test_mixed_derivatives_commute_exactly(self):
        g = GridSpec(2, 16)
        rng = np.random.default_rng(11)
        f = rng.standard_normal(g.shape)
        d01 = second_partial(g, f, 0, 1)
        d10 = second_partial(g, f, 1, 0)
        assert np.abs(d01 - d10).max() < 1e-13

    def test_order4_is_more_accurate(self):
        (theta,) = GridSpec(1, 16).coordinates()
        f = np.cos(theta)
        err2 = np.abs(second_partial(GridSpec(1, 16, 2), f, 0, 0) + f).max()
        err4 = np.abs(second_partial(GridSpec(1, 16, 4), f, 0, 0) + f).max()
        assert err4 < err2 / 40


def roll_partial(grid, f, axis):
    """The np.roll formulation of `partial`, kept as the bitwise reference."""
    h = grid.spacing
    if grid.derivative_order == 2:
        return (np.roll(f, -1, axis=axis) - np.roll(f, 1, axis=axis)) / (2 * h)
    return (
        -np.roll(f, -2, axis=axis)
        + 8 * np.roll(f, -1, axis=axis)
        - 8 * np.roll(f, 1, axis=axis)
        + np.roll(f, 2, axis=axis)
    ) / (12 * h)


def roll_second_partial(grid, f, axis):
    """The np.roll formulation of diagonal `second_partial` (reference)."""
    h = grid.spacing
    if grid.derivative_order == 2:
        return (np.roll(f, -1, axis=axis) - 2 * f + np.roll(f, 1, axis=axis)) / h**2
    return (
        -np.roll(f, -2, axis=axis)
        + 16 * np.roll(f, -1, axis=axis)
        - 30 * f
        + 16 * np.roll(f, 1, axis=axis)
        - np.roll(f, 2, axis=axis)
    ) / (12 * h**2)


class TestStencilsAgainstRoll:
    """The halo-copy stencils equal the np.roll formulas bit for bit."""

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("N", [8, 32])
    @pytest.mark.parametrize("trailing", [(), (2,), (4,), (4, 2, 2, 2)])
    def test_bitwise_equal(self, m, order, N, trailing):
        grid = GridSpec(m, N, order)
        rng = np.random.default_rng(N + 10 * m + order)
        f = rng.standard_normal(grid.shape + trailing)
        f[(0,) * f.ndim] = -0.0
        before = f.copy()
        for axis in range(m):
            assert np.array_equal(partial(grid, f, axis), roll_partial(grid, f, axis))
            assert np.array_equal(
                second_partial(grid, f, axis, axis),
                roll_second_partial(grid, f, axis),
            )
        assert np.array_equal(f, before)

    @pytest.mark.parametrize("order", [2, 4])
    def test_non_contiguous_input(self, order):
        grid = GridSpec(2, 16, order)
        rng = np.random.default_rng(order)
        base = rng.standard_normal((3, 32, 16, 16))
        views = [
            np.transpose(base[0, ::2], (1, 0, 2)),  # strided, then transposed
            base[:, ::2, :, 5].transpose(1, 2, 0),  # grid axes not leading in memory
        ]
        for f in views:
            assert not f.flags.c_contiguous
            before = f.copy()
            for axis in range(2):
                assert np.array_equal(
                    partial(grid, f, axis), roll_partial(grid, f, axis)
                )
                assert np.array_equal(
                    second_partial(grid, f, axis, axis),
                    roll_second_partial(grid, f, axis),
                )
            assert np.array_equal(f, before)

    def test_output_does_not_alias_input(self):
        grid = GridSpec(1, 8, 4)
        f = np.arange(8.0)
        out = second_partial(grid, f, 0, 0)
        out += 1.0
        assert np.array_equal(f, np.arange(8.0))


class TestPartialAndSecond:
    """One halo copy gives `partial` and the diagonal `second_partial` bit
    for bit, on the shapes and views of the roll tests."""

    @staticmethod
    def assert_matches_both(grid, f):
        before = f.copy()
        for axis in range(grid.m):
            d, dd = partial_and_second(grid, f, axis)
            assert np.array_equal(d, partial(grid, f, axis))
            assert np.array_equal(dd, second_partial(grid, f, axis, axis))
            assert not np.shares_memory(d, dd)
        assert np.array_equal(f, before)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("N", [8, 32])
    @pytest.mark.parametrize("trailing", [(), (2,), (4,), (4, 2, 2, 2)])
    def test_bitwise_equal(self, m, order, N, trailing):
        grid = GridSpec(m, N, order)
        rng = np.random.default_rng(N + 10 * m + order)
        f = rng.standard_normal(grid.shape + trailing)
        f[(0,) * f.ndim] = -0.0
        self.assert_matches_both(grid, f)

    @pytest.mark.parametrize("order", [2, 4])
    def test_non_contiguous_input(self, order):
        grid = GridSpec(2, 16, order)
        rng = np.random.default_rng(order)
        base = rng.standard_normal((3, 32, 16, 16))
        for f in (
            np.transpose(base[0, ::2], (1, 0, 2)),
            base[:, ::2, :, 5].transpose(1, 2, 0),
        ):
            assert not f.flags.c_contiguous
            self.assert_matches_both(grid, f)

    def test_invalid_axis(self):
        with pytest.raises(InvalidAxisError):
            partial_and_second(GridSpec(1, 8), np.ones(8), 1)


class TestCurveTaps:
    """The tap windows the m=1 geometry kernel reads off its one halo copy
    of X, 2r deep, and off g_00's r-deep halo, checked on node indices."""

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("N", [8, 13, 64])
    def test_windows_hold_the_periodic_neighbours(self, r, N):
        tail, head, wide, middle, inner = _curve_taps(r, N)
        f = np.arange(N)
        pad = np.concatenate((f[tail], f, f[head]))
        assert len(pad) == N + 4 * r
        i = np.arange(N + 2 * r)
        halo = np.concatenate((f[-r:], f, f[:r]))  # any r-deep halo of N nodes
        for taps in (wide, middle, inner):
            assert len(taps) == 2 * r + 1
        for k in range(2 * r + 1):
            assert np.array_equal(pad[wide[k]], (i + k - 2 * r) % N)
            assert np.array_equal(pad[middle[k]], (i[:N] + k - r) % N)
            assert np.array_equal(halo[inner[k]], (i[:N] + k - r) % N)

    @pytest.mark.parametrize("r", [1, 2])
    def test_built_once_per_radius_and_size(self, r):
        assert _curve_taps(r, 32) is _curve_taps(r, 32)


class TestPartialIntoOut:
    """`partial` with out writes the bytes of a fresh call into out, in any
    layout of out, and returns out."""

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("order", [2, 4])
    def test_bitwise_equal_to_a_fresh_output(self, m, order):
        grid = GridSpec(m, 16, order)
        rng = np.random.default_rng(m + order)
        f = rng.standard_normal(grid.shape + (3, 2))
        f[(0,) * f.ndim] = -0.0
        for axis in range(m):
            want = partial(grid, f, axis)
            # components first in memory, as the covariant layer writes
            out = np.moveaxis(np.empty((3, 2) + grid.shape), (0, 1), (-2, -1))
            assert partial(grid, f, axis, out=out) is out
            assert np.array_equal(out, want)
            assert np.array_equal(np.signbit(out), np.signbit(want))


class TestStencilOutputsAreFresh:
    """Each stencil call returns arrays of its own: two consecutive calls
    share no memory with each other or with the input, so no buffer is kept
    between calls."""

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("order", [2, 4])
    def test_consecutive_calls_share_no_memory(self, m, order):
        grid = GridSpec(m, 16, order)
        f = np.random.default_rng(m + order).standard_normal(grid.shape + (2, 3))
        for axis in range(m):
            outs = [
                partial(grid, f, axis),
                partial(grid, f, axis),
                *partial_and_second(grid, f, axis),
                *partial_and_second(grid, f, axis),
            ]
            for k, a in enumerate(outs):
                assert not np.shares_memory(a, f)
                assert not any(np.shares_memory(a, b) for b in outs[k + 1 :])


class TestImmersion:
    def test_rejects_non_finite(self, circle_grid):
        pos = np.ones(circle_grid.shape + (2,))
        pos[3, 0] = np.nan
        with pytest.raises(ValueError):
            Immersion(circle_grid, pos)

    def test_rejects_wrong_shape(self, circle_grid):
        with pytest.raises(ShapeError):
            Immersion(circle_grid, np.ones((5, 2)))

    def test_roundtrip_serialization(self, unit_circle):
        buf = io.StringIO()
        write_immersion(unit_circle, buf)
        buf.seek(0)
        back = read_immersion(buf)
        assert back.grid == unit_circle.grid
        assert back.time == unit_circle.time
        assert np.array_equal(back.positions, unit_circle.positions)

    def test_writer_matches_per_node_formatting(self):
        rng = np.random.default_rng(0)
        grid = GridSpec(2, 8)
        pos = rng.standard_normal(grid.shape + (3,)) * 10.0 ** rng.integers(
            -300, 300, grid.shape + (3,)
        )
        pos[0, 0, 0] = -0.0
        imm = Immersion(grid, pos, time=0.1)
        # reference: one line per node, axis 0 fastest, `.17g` coordinates
        lines = ["2 1 8 0.1"]
        for i1 in range(8):
            for i0 in range(8):
                coords = " ".join(format(c, ".17g") for c in pos[i0, i1])
                lines.append(f"{i0} {i1} {coords}")
        buf = io.StringIO()
        write_immersion(imm, buf)
        assert buf.getvalue() == "\n".join(lines) + "\n"

    def test_header_format(self, unit_circle):
        buf = io.StringIO()
        write_immersion(unit_circle, buf)
        header = buf.getvalue().splitlines()[0].split()
        assert header[:3] == ["1", "1", "64"]


class TestSymmetry:
    def test_identity_action(self, unit_circle):
        s = identity_symmetry(unit_circle.grid, 2)
        out = apply_symmetry(unit_circle, s)
        assert np.array_equal(out.positions, unit_circle.positions)

    def test_rotation_equivariance_of_circle(self, circle_grid, unit_circle):
        alpha = circle_grid.spacing
        Q = np.array(
            [[np.cos(alpha), -np.sin(alpha)], [np.sin(alpha), np.cos(alpha)]]
        )
        s = SymmetryAction(Q, np.zeros(2), shift_permutation(circle_grid, [1]))
        out = apply_symmetry(unit_circle, s)
        assert np.abs(out.positions - unit_circle.positions).max() < 1e-14

    def test_reflection_symmetry_of_ellipse(self, circle_grid):
        ell = shapes.ellipse(circle_grid, 1.5, 1.0)
        s = SymmetryAction(
            np.diag([1.0, -1.0]),
            np.zeros(2),
            reflection_permutation(circle_grid, [0]),
        )
        out = apply_symmetry(ell, s)
        assert np.abs(out.positions - ell.positions).max() < 1e-14

    def test_partial_commutes_with_shift(self, circle_grid):
        rng = np.random.default_rng(5)
        f = rng.standard_normal(circle_grid.shape)
        perm = shift_permutation(circle_grid, [3])
        shifted = f.ravel()[perm.ravel()].reshape(f.shape)
        assert np.array_equal(
            partial(circle_grid, shifted, 0),
            partial(circle_grid, f, 0).ravel()[perm.ravel()].reshape(f.shape),
        )

    def test_dimension_mismatch(self, unit_circle):
        s = identity_symmetry(unit_circle.grid, 3)
        with pytest.raises(ShapeError):
            apply_symmetry(unit_circle, s)

    def test_non_orthogonal_matrix_rejected(self, circle_grid):
        with pytest.raises(ValueError):
            SymmetryAction(
                np.array([[1.0, 1.0], [0.0, 1.0]]),
                np.zeros(2),
                shift_permutation(circle_grid, [0]),
            )
