"""Matrix type, validation, and the text format."""

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
    PCMatrix,
    ReciprocityViolation,
    Triad,
    defined_pairs,
    is_complete,
    list_triads,
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


def test_defined_pairs_and_triads(tri3, inc4):
    assert defined_pairs(tri3) == [(0, 1), (0, 2), (1, 2)]
    assert defined_pairs(inc4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    assert [(t.i, t.k, t.j) for t in list_triads(inc4)] == [(0, 1, 2), (0, 1, 3)]
    t = list_triads(tri3)[0]
    assert t == Triad(0, 1, 2, 2.0, 3.0, 12.0)
    full = PCMatrix(np.ones((4, 4)))
    assert len(list_triads(full)) == 4


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
