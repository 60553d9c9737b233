"""Matrix type, validation, and the text format."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcindex import (
    MISSING,
    BadDiagonal,
    BadSize,
    MatrixSyntaxError,
    NonPositiveEntry,
    NonSquare,
    PCError,
    PCMatrix,
    ReciprocityViolation,
    is_complete,
    parse_matrix,
    serialize_matrix,
    validate,
)
from tests.conftest import INC4_TEXT, random_pattern


def test_missing_singleton():
    assert MISSING is type(MISSING)()
    assert repr(MISSING) == "MISSING"
    assert not MISSING
    assert MISSING is not None


def test_validate_happy_path(tri3):
    assert tri3.n == 3
    assert is_complete(tri3)
    assert tri3[0, 1] == 2.0
    assert tri3[1, 0] == 0.5
    assert tri3.entry(2, 0) == 1.0 / 12.0


def test_validate_nonsquare():
    with pytest.raises(NonSquare):
        validate([[1, 2], [0.5, 1], [1, 1]])


def test_validate_too_small():
    with pytest.raises(BadSize):
        validate([[1, 2], [0.5, 1]])


def test_validate_bad_diagonal():
    with pytest.raises(BadDiagonal):
        validate([[1, 2, 3], [0.5, 2, 1], [1 / 3, 1, 1]])
    with pytest.raises(BadDiagonal):
        validate([[1, 2, 3], [0.5, None, 1], [1 / 3, 1, 1]])


def test_validate_nonpositive():
    with pytest.raises(NonPositiveEntry) as exc:
        validate([[1, -2, 3], [-0.5, 1, 1], [1 / 3, 1, 1]])
    assert (exc.value.i, exc.value.j) == (0, 1)
    with pytest.raises(NonPositiveEntry):
        validate([[1, 0.0, 3], [np.inf, 1, 1], [1 / 3, 1, 1]])
    with pytest.raises(NonPositiveEntry):
        validate([[1, "2", 3], [0.5, 1, 1], [1 / 3, 1, 1]])


def test_validate_reciprocity():
    with pytest.raises(ReciprocityViolation) as exc:
        validate([[1, 2, 3], [3, 1, 1], [1 / 3, 1, 1]])
    assert (exc.value.i, exc.value.j) == (0, 1)
    # one-sided missing is also a reciprocity problem
    with pytest.raises(ReciprocityViolation):
        validate([[1, 2, 3], [0.5, 1, None], [1 / 3, 1, 1]])


def test_validate_reciprocity_tolerance():
    # a few ulps of asymmetry must pass; a real mismatch must not
    ok = validate([[1, 3, 1], [1 / 3 + 5e-17, 1, 1], [1, 1, 1]])
    assert ok[1, 0] == 1.0 / 3.0  # lower triangle is rebuilt exactly
    with pytest.raises(ReciprocityViolation):
        validate([[1, 3, 1], [1 / 3 + 1e-7, 1, 1], [1, 1, 1]])


def _grid(n=5, **cells):
    """A consistent n x n grid (weights 2^-i: exact reciprocals) with cells replaced.

    Keys are 1-based cell names such as ``c24`` for row 2, column 4.
    """
    grid = [[2.0 ** (j - i) for j in range(n)] for i in range(n)]
    for key, value in cells.items():
        grid[int(key[1]) - 1][int(key[2]) - 1] = value
    return grid


_ONE_SIDED = "entries (%s) and (%s) must both be present or both missing"
_NOT_POSITIVE = "entry (%s) must be a strictly positive finite ratio"


@pytest.mark.parametrize(
    "cells, cls, message",
    [
        # diagonal: missing, then not exactly 1, each at two positions
        ({"c22": None}, BadDiagonal, "diagonal entry (2,2) is missing"),
        ({"c55": MISSING, "c44": 3.0}, BadDiagonal, "diagonal entry (4,4) must be exactly 1, got"),
        ({"c11": 2.0}, BadDiagonal, "diagonal entry (1,1) must be exactly 1, got"),
        # positivity, upper and lower triangle; the first cell in row-major order wins
        ({"c13": -4.0}, NonPositiveEntry, _NOT_POSITIVE % "1,3"),
        ({"c52": 0.0, "c43": np.nan}, NonPositiveEntry, _NOT_POSITIVE % "4,3"),
        ({"c32": np.inf, "c24": -np.inf}, NonPositiveEntry, _NOT_POSITIVE % "2,4"),
        # reciprocity: a value mismatch, then a pair defined on one side only
        ({"c42": 3.0}, ReciprocityViolation, "entries (2,4) and (4,2) are not reciprocal"),
        ({"c35": 5.0, "c53": 0.5}, ReciprocityViolation, "entries (3,5) and (5,3) are not reciprocal"),
        ({"c15": None}, ReciprocityViolation, _ONE_SIDED % ("1,5", "5,1")),
        ({"c43": None}, ReciprocityViolation, _ONE_SIDED % ("3,4", "4,3")),
        # mismatch and one-sided pair together: the first pair in row-major order wins
        ({"c54": None, "c41": 3.0}, ReciprocityViolation, "entries (1,4) and (4,1) are not reciprocal"),
        ({"c25": None, "c43": 3.0}, ReciprocityViolation, _ONE_SIDED % ("2,5", "5,2")),
        # cells bad for two checks: the earlier check reports them
        ({"c33": -1.0}, BadDiagonal, "diagonal entry (3,3) must be exactly 1, got"),
        ({"c23": -3.0}, NonPositiveEntry, _NOT_POSITIVE % "2,3"),
        ({"c42": np.inf, "c24": None}, NonPositiveEntry, _NOT_POSITIVE % "4,2"),
    ],
)
def test_validate_reports_first_bad_cell(cells, cls, message):
    with pytest.raises(PCError) as exc:
        validate(_grid(**cells))
    assert type(exc.value) is cls
    assert str(exc.value).startswith(message)
    if cls is not BadDiagonal:
        assert "(%d,%d)" % (exc.value.i + 1, exc.value.j + 1) in message
    validate(_grid())


def _first_violation_by_loops(grid):
    """(class, message) of the first bad cell by the diagonal, positivity and reciprocity loops."""
    n = len(grid)
    for i in range(n):
        if grid[i][i] is None:
            return BadDiagonal, "diagonal entry (%d,%d) is missing" % (i + 1, i + 1)
        if grid[i][i] != 1.0:
            return BadDiagonal, "diagonal entry (%d,%d) must be exactly 1" % (i + 1, i + 1)
    for i in range(n):
        for j in range(n):
            x = grid[i][j]
            if i != j and x is not None and not (math.isfinite(x) and x > 0.0):
                return NonPositiveEntry, _NOT_POSITIVE % ("%d,%d" % (i + 1, j + 1))
    for i in range(n):
        for j in range(i + 1, n):
            a, b = grid[i][j], grid[j][i]
            cells = (i + 1, j + 1, j + 1, i + 1)
            if (a is None) != (b is None):
                return ReciprocityViolation, _ONE_SIDED % ("%d,%d" % cells[:2], "%d,%d" % cells[2:])
            if a is not None and abs(b - 1.0 / a) > 1e-12 * max(abs(b), abs(1.0 / a)):
                return ReciprocityViolation, "entries (%d,%d) and (%d,%d) are not reciprocal" % cells
    return None, None


def test_validate_matches_loops_on_random_grids():
    rng = np.random.default_rng(41)
    bad = [None, -1.0, 0.0, np.nan, np.inf, -np.inf, 3.0, 1.0, 0.5, 1e-300]
    for _ in range(400):
        n = int(rng.integers(3, 7))
        grid = _grid(n)
        for _ in range(int(rng.integers(0, 4))):
            grid[int(rng.integers(n))][int(rng.integers(n))] = bad[int(rng.integers(len(bad)))]
        cls, message = _first_violation_by_loops(grid)
        if cls is None:
            validate(grid)
            continue
        with pytest.raises(PCError) as exc:
            validate(grid)
        assert type(exc.value) is cls
        assert str(exc.value).startswith(message)


def test_validate_does_not_mutate():
    grid = [[1, 2, 3], [0.5, 1, 1], [1 / 3, 1, 1]]
    snapshot = [row[:] for row in grid]
    validate(grid)
    assert grid == snapshot


def test_pcmatrix_rebuilds_lower_triangle():
    m = validate([[1, 7, 3], [1 / 7, 1, 1], [1 / 3, 1, 1]])
    for i in range(3):
        assert m.values[i, i] == 1.0
        for j in range(i + 1, 3):
            assert m.values[j, i] == 1.0 / m.values[i, j]  # exact float reciprocal


def test_pcmatrix_missing_cells(inc4):
    assert not is_complete(inc4)
    assert inc4.entry(2, 3) is MISSING
    assert inc4[3, 2] is MISSING
    assert np.isnan(inc4.values[2, 3])
    assert not inc4.defined[3, 2]
    assert inc4.defined[2, 2]


def test_pcmatrix_arrays_read_only(tri3):
    with pytest.raises(ValueError):
        tri3.values[0, 1] = 5.0
    with pytest.raises(ValueError):
        tri3.defined[0, 1] = False


def test_pcmatrix_equality_and_hash(tri3, inc4):
    again = parse_matrix("3\n1 2 12\n1/2 1 3\n1/12 1/3 1\n")
    assert tri3 == again
    assert hash(tri3) == hash(again)
    assert tri3 != inc4
    assert tri3 != validate([[1, 2, 12], [0.5, 1, 4], [1 / 12, 0.25, 1]])


def test_exceeds_scale_flag(tri3, inc4):
    assert tri3.exceeds_scale  # the 12 sticks out of 1/9..9
    assert not inc4.exceeds_scale
    edge = PCMatrix(np.array([[1, 9, 1], [1 / 9, 1, 1], [1, 1, 1.0]]))
    assert not edge.exceeds_scale  # 1/9..9 is closed


def test_repr_counts_defined_pairs(tri3, inc4):
    assert repr(tri3) == "PCMatrix(n=3, defined pairs=3/3)"
    assert repr(inc4) == "PCMatrix(n=4, defined pairs=5/6)"


def test_parse_fractions_comments_blank_lines():
    text = "# comment\n\n3\n1 2 12\n # indented comment\n1/2 1 3\n1/12 1/3 1\n"
    m = parse_matrix(text)
    assert m[1, 0] == 0.5
    assert m[2, 0] == 1.0 / 12.0


def test_parse_question_mark(inc4):
    assert inc4.entry(2, 3) is MISSING


def test_parse_errors_carry_line_numbers():
    with pytest.raises(MatrixSyntaxError) as exc:
        parse_matrix("3\n1 2 12\n1/2 1 bogus\n1/12 1/3 1\n")
    assert exc.value.line_no == 3
    with pytest.raises(MatrixSyntaxError) as exc:
        parse_matrix("3\n1 2 12\n1/2 1\n1/12 1/3 1\n")
    assert exc.value.line_no == 3
    with pytest.raises(MatrixSyntaxError):
        parse_matrix("3\n1 2 12\n1/2 1 3\n")  # missing a row
    with pytest.raises(MatrixSyntaxError):
        parse_matrix("3\n1 2 12\n1/2 1 3\n1/12 1/3 1\nextra\n")
    with pytest.raises(MatrixSyntaxError):
        parse_matrix("not-a-number\n")
    with pytest.raises(MatrixSyntaxError):
        parse_matrix("")
    with pytest.raises(BadSize):
        parse_matrix("2\n1 2\n1/2 1\n")
    with pytest.raises(MatrixSyntaxError):
        parse_matrix("3\n1 0/2 12\n2 1 3\n1/12 1/3 1\n")  # zero in a fraction


def test_parse_rejects_bad_values():
    with pytest.raises(NonPositiveEntry):
        parse_matrix("3\n1 -2 12\n-0.5 1 3\n1/12 1/3 1\n")
    with pytest.raises(ReciprocityViolation):
        parse_matrix("3\n1 2 12\n0.4 1 3\n1/12 1/3 1\n")


def test_serialize_round_trip(tri3, inc4, sparse7):
    for m in (tri3, inc4, sparse7):
        assert parse_matrix(serialize_matrix(m)) == m


def test_serialize_uses_question_mark(inc4):
    lines = serialize_matrix(inc4).splitlines()
    assert lines[0] == "4"
    assert lines[3].split()[3] == "?"


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_round_trip_random_matrices(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(3, 7))
    extra = data.draw(st.integers(0, n * (n - 1) // 2 - (n - 1)))
    defined = random_pattern(rng, n, extra)
    vals = np.ones((n, n))
    iu = np.triu_indices(n, 1)
    vals[iu] = np.exp(rng.uniform(-2.5, 2.5, iu[0].size))
    m = PCMatrix(vals, defined)
    assert parse_matrix(serialize_matrix(m)) == m


def test_parse_matches_hand_built(inc4):
    hand = validate(
        [
            [1, 2 / 3, 4 / 3, 1 / 2],
            [3 / 2, 1, 2, 3 / 4],
            [3 / 4, 1 / 2, 1, MISSING],
            [2, 4 / 3, MISSING, 1],
        ]
    )
    assert hand == inc4
    assert INC4_TEXT.strip().startswith("4")
