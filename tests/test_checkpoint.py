"""Strict checkpoint reading: a malformed file is a CheckpointError that
names the problem; a well-formed one round-trips bit for bit.  The writer
gives the bytes of one row per node and holds one grid slab at a time; the
reader parses one block of rows at a time, and where its blocks end changes
neither what it reads nor what it rejects."""

import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mcflab import grid, shapes
from mcflab.grid import (
    CheckpointError,
    GridSpec,
    Immersion,
    read_immersion,
    write_immersion,
)

from conftest import UNALLOCATABLE_HEADERS, rowwise_checkpoint_text, traced_peak


def immersion_to_text(imm):
    buf = io.StringIO()
    write_immersion(imm, buf)
    return buf.getvalue()


def torus_lines(N=8):
    text = immersion_to_text(shapes.product_torus(GridSpec(2, N), 1.0, 0.5))
    return text.splitlines(keepends=True)


def read_text(text):
    return read_immersion(io.StringIO(text))


@pytest.fixture
def small_blocks(monkeypatch):
    """read_immersion parsing 5 lines per block, so an N=8 file spans many."""
    monkeypatch.setattr(grid, "READ_BLOCK_ROWS", 5)


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
        "header",
        [
            "",
            "2 1 eight 0.0\n",
            "2 1 8\n",
            "2 0 8 0.0\n",
            "3 1 8 0.0\n",
            "2 1 8 nan\n",
            "2 1 8 inf\n",
        ],
    )
    def test_unparsable_header(self, header):
        lines = torus_lines()
        with pytest.raises(CheckpointError, match="header"):
            read_text(header + "".join(lines[1:]))

    def test_header_only(self):
        with pytest.raises(CheckpointError, match="0 rows, expected 64"):
            read_text(torus_lines()[0])

    @pytest.mark.parametrize("case", sorted(UNALLOCATABLE_HEADERS))
    def test_grid_that_cannot_be_allocated(self, case, request):
        if case == "out-of-memory":
            request.getfixturevalue("refused_allocation")
        header = UNALLOCATABLE_HEADERS[case]
        with pytest.raises(CheckpointError) as info:
            read_text(header + "".join(torus_lines()[1:]))
        assert f"checkpoint header {header.strip()!r}" in str(info.value)
        assert "a grid that can be allocated" in str(info.value)

    def test_header_that_is_not_utf8(self):
        data = np.random.default_rng(0).bytes(3000)
        with pytest.raises(CheckpointError, match="header is not UTF-8"):
            read_immersion(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))

    @pytest.mark.usefixtures("small_blocks")
    def test_rows_that_are_not_utf8_name_their_block(self):
        lines = torus_lines(32)
        lines[600] = lines[600][:-2] + "\udcff\n"
        data = "".join(lines).encode("utf-8", "surrogateescape")
        with pytest.raises(CheckpointError, match="is not UTF-8") as info:
            read_immersion(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        # the stream decodes one chunk (8 KiB, some 140 rows) ahead of the
        # rows it hands out
        (after,) = re.findall(r"^checkpoint block after (\d+) rows", str(info.value))
        assert 400 < int(after) < 600


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

    def test_numpy_scalar_time_round_trips_as_a_float(self):
        imm = Immersion(GridSpec(1, 8), np.ones((8, 2)), np.float64(0.25))
        assert type(imm.time) is float
        text = immersion_to_text(imm)
        assert text.splitlines()[0] == "1 1 8 0.25"
        back = read_text(text)
        assert type(back.time) is float and back.time == 0.25

    @pytest.mark.parametrize("time", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_is_refused(self, time):
        with pytest.raises(ValueError, match="time must be finite"):
            Immersion(GridSpec(1, 8), np.ones((8, 2)), time)

    @pytest.mark.parametrize("time", [0.0, 0.2, 1000.0])
    @given(
        data=st.data(),
        m=st.sampled_from([1, 2]),
        codimension=st.sampled_from([1, 2]),
    )
    @settings(max_examples=20, deadline=None)
    def test_round_trip_property(self, data, m, codimension, time):
        grid = GridSpec(m, 8)
        pos = data.draw(
            arrays(
                np.float64,
                grid.shape + (m + codimension,),
                elements=st.floats(allow_nan=False, allow_infinity=False),
            )
        )
        imm = Immersion(grid, pos, time)
        back = read_immersion(io.StringIO(immersion_to_text(imm)))
        assert back.grid == grid
        assert back.time == time
        assert np.array_equal(back.positions, pos)
        assert np.array_equal(np.signbit(back.positions), np.signbit(pos))

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


def extreme_positions(grid, A, seed):
    """Positions over the whole double range, with -0.0, subnormals and
    +-1e308 among them."""
    rng = np.random.default_rng(seed)
    pos = rng.standard_normal(grid.shape + (A,)) * 10.0 ** rng.integers(
        -300, 300, grid.shape + (A,)
    )
    flat = pos.reshape(-1)
    flat[:6] = [-0.0, 5e-324, -2.2250738585072e-309, 1e308, -1e308, 0.0]
    return pos


class TestWriter:
    @pytest.mark.parametrize("m, A", [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    @pytest.mark.parametrize("N", [9, 16])
    def test_bytes_equal_the_rowwise_text(self, m, A, N):
        grid = GridSpec(m, N)
        imm = Immersion(grid, extreme_positions(grid, A, 10 * m + A + N), 0.1 + 0.2)
        text = immersion_to_text(imm)
        assert text == rowwise_checkpoint_text(imm)
        assert text.startswith(f"{m} {A - m} {N} 0.30000000000000004\n")
        back = read_text(text)
        assert np.array_equal(back.positions, imm.positions)
        assert np.array_equal(np.signbit(back.positions), np.signbit(imm.positions))

    def test_layout_of_the_positions_does_not_change_the_bytes(self):
        grid = GridSpec(2, 9)
        pos = extreme_positions(grid, 4, 3)
        want = immersion_to_text(Immersion(grid, pos))
        # ambient axis first in memory, as the flow keeps its m=2 state
        ambient_first = np.moveaxis(np.ascontiguousarray(np.moveaxis(pos, -1, 0)), 0, -1)
        assert immersion_to_text(Immersion(grid, ambient_first)) == want

    def test_traced_peak_is_one_slab(self, tmp_path):
        # the whole-file writer peaked at 7.0 MiB here; the file is 1.4 MB
        imm = shapes.product_torus(GridSpec(2, 128), 1.0, 1.0)
        path = tmp_path / "torus.txt"
        _, peak = traced_peak(write_immersion, imm, path)
        assert peak < 0.25 * 2**20
        assert path.read_text() == rowwise_checkpoint_text(imm)


@pytest.mark.usefixtures("small_blocks")
class TestBlocks:
    def test_shuffled_rows_and_blank_blocks_read_the_same(self):
        lines = torus_lines()
        want = read_text("".join(lines))
        body = lines[1:]
        np.random.default_rng(3).shuffle(body)
        # 7 blank lines after the header: one block of them alone
        got = read_text(lines[0] + "\n" * 7 + "\n".join(body) + "\n")
        assert np.array_equal(got.positions, want.positions)
        assert got.time == want.time

    def test_duplicate_across_blocks_names_the_first_node(self):
        lines = torus_lines()
        coords = lines[1].split()[2:]
        # (7, 7) repeated in the last block, then (2, 0) in the second block
        lines[-1] = " ".join(["7", "7"] + coords) + "\n"
        lines[7] = " ".join(["2", "0"] + coords) + "\n"
        with pytest.raises(CheckpointError, match=r"duplicate multi-index \(2, 0\)"):
            read_text("".join(lines))

    def test_out_of_range_in_a_late_block_names_the_first_row(self):
        lines = torus_lines()
        coords = lines[1].split()[2:]
        lines[40] = " ".join(["9", "0"] + coords) + "\n"
        lines[60] = " ".join(["0", "-2"] + coords) + "\n"
        with pytest.raises(CheckpointError, match=r"multi-index \(9, 0\) out of range"):
            read_text("".join(lines))

    def test_row_count_is_checked_before_the_indices(self):
        lines = torus_lines()
        coords = lines[1].split()[2:]
        lines[3] = " ".join(["9", "0"] + coords) + "\n"
        with pytest.raises(CheckpointError, match="63 rows, expected 64"):
            read_text("".join(lines[:-1]))

    def test_block_of_the_wrong_width(self):
        lines = torus_lines()
        # lines 31 to 35 are the seventh block, all five rows a column short
        lines[31:36] = [" ".join(ln.split()[:-1]) + "\n" for ln in lines[31:36]]
        with pytest.raises(CheckpointError, match="5 columns, expected 6"):
            read_text("".join(lines))


def test_traced_peak_is_within_twice_the_positions(tmp_path):
    # the whole-file reader peaked at 7.68 MiB here, 15 times the positions
    imm = shapes.product_torus(GridSpec(2, 128), 1.0, 1.0)
    path = tmp_path / "torus.txt"
    write_immersion(imm, path)
    back, peak = traced_peak(read_immersion, path)
    assert peak <= 2 * imm.positions.nbytes
    assert np.array_equal(back.positions, imm.positions)
