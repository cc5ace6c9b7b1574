"""Strict checkpoint reading: a malformed file is a CheckpointError that
names the problem; a well-formed one round-trips bit for bit."""

import io

import numpy as np
import pytest

from mcflab import shapes
from mcflab.grid import (
    CheckpointError,
    GridSpec,
    Immersion,
    immersion_to_text,
    read_immersion,
    write_immersion,
)


def torus_lines(N=8):
    text = immersion_to_text(shapes.product_torus(GridSpec(2, N), 1.0, 0.5))
    return text.splitlines(keepends=True)


def read_text(text):
    return read_immersion(io.StringIO(text))


class TestRejected:
    def test_truncated_rows(self):
        lines = torus_lines(64)
        with pytest.raises(CheckpointError, match="4093 rows, expected 4096"):
            read_text("".join(lines[:-3]))

    def test_duplicate_multi_index(self):
        lines = torus_lines()
        coords = lines[-1].split()[2:]
        lines[-1] = " ".join(["3", "4"] + coords) + "\n"
        with pytest.raises(CheckpointError, match=r"duplicate multi-index \(3, 4\)"):
            read_text("".join(lines))

    @pytest.mark.parametrize("index", [("8", "7"), ("7", "-1"), ("1.5", "7")])
    def test_index_out_of_range(self, index):
        lines = torus_lines()
        coords = lines[-1].split()[2:]
        lines[-1] = " ".join(list(index) + coords) + "\n"
        with pytest.raises(CheckpointError, match="out of range"):
            read_text("".join(lines))

    def test_wrong_column_count(self):
        lines = torus_lines()
        cut = [lines[0]] + [" ".join(ln.split()[:-1]) + "\n" for ln in lines[1:]]
        with pytest.raises(CheckpointError, match="5 columns, expected 6"):
            read_text("".join(cut))

    def test_ragged_row(self):
        lines = torus_lines()
        lines[5] = " ".join(lines[5].split()[:-1]) + "\n"
        with pytest.raises(CheckpointError, match="column"):
            read_text("".join(lines))

    def test_unparsable_coordinate(self):
        lines = torus_lines()
        lines[5] = lines[5].replace(lines[5].split()[3], "x1", 1)
        with pytest.raises(CheckpointError, match="rows"):
            read_text("".join(lines))

    @pytest.mark.parametrize(
        "header", ["", "2 1 eight 0.0\n", "2 1 8\n", "2 0 8 0.0\n", "3 1 8 0.0\n"]
    )
    def test_unparsable_header(self, header):
        lines = torus_lines()
        with pytest.raises(CheckpointError, match="header"):
            read_text(header + "".join(lines[1:]))

    def test_header_only(self):
        with pytest.raises(CheckpointError, match="0 rows, expected 64"):
            read_text(torus_lines()[0])


class TestAccepted:
    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(1)
        grid = GridSpec(2, 8, 4)
        pos = rng.standard_normal(grid.shape + (4,)) * 10.0 ** rng.integers(
            -300, 300, grid.shape + (4,)
        )
        pos[0, 0, 0] = -0.0
        imm = Immersion(grid, pos, time=0.1 + 0.2)
        back = read_immersion(io.StringIO(immersion_to_text(imm)), 4)
        assert back.grid == grid
        assert back.time == imm.time
        assert np.array_equal(back.positions, pos)
        assert np.signbit(back.positions[0, 0, 0])

    def test_row_order_and_blank_lines_do_not_matter(self):
        lines = torus_lines()
        want = read_text("".join(lines)).positions
        body = lines[1:]
        np.random.default_rng(2).shuffle(body)
        got = read_text(lines[0] + "\n" + "\n".join(body) + "\n").positions
        assert np.array_equal(got, want)

    def test_round_trip_through_a_path_object(self, tmp_path):
        imm = shapes.product_torus(GridSpec(2, 8), 1.0, 0.5)
        path = tmp_path / "torus.txt"
        write_immersion(imm, path)
        assert path.read_text() == immersion_to_text(imm)
        back = read_immersion(path)
        assert back.grid == imm.grid
        assert back.time == imm.time
        assert np.array_equal(back.positions, imm.positions)
