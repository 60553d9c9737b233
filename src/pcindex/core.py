"""Pairwise-comparison matrices: data model, validation, text format.

A pairwise-comparison (PC) matrix is a square positive matrix C with
c_ii = 1 and c_ji = 1/c_ij, holding ratio judgments "alternative i is
c_ij times preferable to alternative j".  Entries may be missing (the
judgment was never elicited); missing entries always come in symmetric
pairs.  This module owns the matrix type plus parsing/serialization of
the plain-text file format used by the CLI.
"""

import re

import numpy as np

RECIPROCITY_RTOL = 1e-12
SCALE_S = 9.0  # customary judgment scale 1/9..9; exceeding it is flagged, never clipped

__all__ = [
    "MISSING",
    "PCMatrix",
    "PCError",
    "NonSquare",
    "BadSize",
    "BadDiagonal",
    "ReciprocityViolation",
    "NonPositiveEntry",
    "MatrixSyntaxError",
    "NotComplete",
    "NotIrreducible",
    "validate",
    "is_complete",
    "parse_matrix",
    "serialize_matrix",
]


class PCError(Exception):
    """Base class for every error raised by this package."""


class NonSquare(PCError):
    """The candidate grid is not square."""


class BadSize(PCError):
    """Fewer than 3 alternatives (no triad or cycle can exist)."""


class BadDiagonal(PCError):
    """A diagonal entry is missing or differs from 1."""


class ReciprocityViolation(PCError):
    """c_ji does not match 1/c_ij, or only one of the two is defined."""

    def __init__(self, i, j, message=None):
        self.i = i
        self.j = j
        super().__init__(
            message
            or "entries (%d,%d) and (%d,%d) are not reciprocal"
            % (i + 1, j + 1, j + 1, i + 1)
        )


class NonPositiveEntry(PCError):
    """An entry is not a strictly positive finite ratio."""

    def __init__(self, i, j, message=None):
        self.i = i
        self.j = j
        super().__init__(
            message
            or "entry (%d,%d) must be a strictly positive finite ratio"
            % (i + 1, j + 1)
        )


class MatrixSyntaxError(PCError):
    """The matrix file text is malformed."""

    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__("line %d: %s" % (line_no, message))


class NotComplete(PCError):
    """Operation requires a complete matrix but some entries are missing."""


class NotIrreducible(PCError):
    """Operation requires a connected comparison graph."""


class _MissingType:
    """Sentinel for an absent comparison; use the MISSING singleton."""

    _instance = None
    __slots__ = ()

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "MISSING"

    def __bool__(self):
        return False


MISSING = _MissingType()


class PCMatrix:
    """An immutable n x n positive reciprocal matrix with optional missing entries.

    The upper triangle is the single source of truth: the constructor
    rebuilds the diagonal (exactly 1) and the lower triangle (exact float
    reciprocals) from it, and mirrors the definedness mask.  Cell lookup
    returns either a float or the MISSING sentinel.

    The raw buffers are exposed read-only for numeric code: ``values``
    (float array; undefined slots hold NaN so stray arithmetic on them
    cannot pass silently - always consult ``defined``) and ``defined``
    (boolean mask, the authoritative record of which cells exist).

    ``exceeds_scale`` flags a defined entry outside 1/SCALE_S..SCALE_S.

    Use :func:`validate` or :func:`parse_matrix` to build one from
    untrusted data; the constructor itself does not check reciprocity
    since it enforces it structurally.
    """

    def __init__(self, values, defined=None):
        v = np.array(values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise NonSquare("expected a square matrix, got shape %s" % (v.shape,))
        n = v.shape[0]
        if n < 3:
            raise BadSize("need at least 3 alternatives, got %d" % n)
        if defined is None:
            d = np.ones((n, n), dtype=bool)
        else:
            d = np.array(defined, dtype=bool)
            if d.shape != (n, n):
                raise NonSquare("mask shape %s does not match matrix" % (d.shape,))
        iu = np.triu_indices(n, 1)
        il = (iu[1], iu[0])
        d[il] = d[iu]
        np.fill_diagonal(d, True)
        v[il] = 1.0 / v[iu]
        np.fill_diagonal(v, 1.0)
        v[~d] = np.nan
        v.flags.writeable = False
        d.flags.writeable = False
        self._values = v
        self._defined = d
        # the diagonal's 1.0 lies inside the scale, so it never raises the flag
        dv = v[d]
        self.exceeds_scale = bool((dv > SCALE_S).any() or (dv < 1.0 / SCALE_S).any())

    @property
    def n(self):
        return self._values.shape[0]

    @property
    def values(self):
        """Read-only float view; NaN marks undefined slots (see ``defined``)."""
        return self._values

    @property
    def defined(self):
        """Read-only boolean mask of defined cells (diagonal always True)."""
        return self._defined

    def entry(self, i, j):
        """Return c_ij as a float, or MISSING."""
        if self._defined[i, j]:
            return float(self._values[i, j])
        return MISSING

    def __getitem__(self, ij):
        i, j = ij
        return self.entry(i, j)

    def __eq__(self, other):
        if not isinstance(other, PCMatrix):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self._defined, other._defined)
            and np.array_equal(self._values, other._values, equal_nan=True)
        )

    def __hash__(self):
        return hash((self.n, self._values.tobytes(), self._defined.tobytes()))

    def __repr__(self):
        pairs = np.count_nonzero(np.triu(self._defined, 1))
        return "PCMatrix(n=%d, defined pairs=%d/%d)" % (self.n, pairs, self.n * (self.n - 1) // 2)


def validate(grid):
    """Check a candidate grid and return a PCMatrix.

    ``grid`` is any square sequence of rows whose cells are numbers,
    MISSING, or None (treated as missing).  Raises NonSquare, BadSize,
    BadDiagonal, NonPositiveEntry, or ReciprocityViolation.  The input
    is never mutated.
    """
    rows = [list(r) for r in grid]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NonSquare("grid rows have unequal lengths")
    if n < 3:
        raise BadSize("need at least 3 alternatives, got %d" % n)
    vals = np.ones((n, n), dtype=float)
    mask = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            cell = rows[i][j]
            if cell is None or cell is MISSING:
                continue
            if isinstance(cell, bool) or not isinstance(cell, (int, float, np.integer, np.floating)):
                raise NonPositiveEntry(
                    i, j, "entry (%d,%d) must be a number or MISSING" % (i + 1, j + 1)
                )
            vals[i, j] = float(cell)
            mask[i, j] = True
    return _checked(vals, mask)


def _checked(vals, mask):
    """PCMatrix of an n x n float grid and its definedness mask, after the array checks.

    ``vals`` holds 1 in every missing cell.  Checks the diagonal, then
    positivity, then reciprocity, each reporting its first bad cell in
    row-major order: BadDiagonal, NonPositiveEntry, ReciprocityViolation.
    """
    n = len(vals)
    bad_diag = np.flatnonzero(~mask.diagonal() | (vals.diagonal() != 1.0))
    if bad_diag.size:
        i = int(bad_diag[0])
        if not mask[i, i]:
            raise BadDiagonal("diagonal entry (%d,%d) is missing" % (i + 1, i + 1))
        raise BadDiagonal(
            "diagonal entry (%d,%d) must be exactly 1, got %r" % (i + 1, i + 1, vals[i, i])
        )
    # the diagonal and the missing cells hold 1, so only defined off-diagonal cells can fail
    cell = _first_cell(~((vals > 0.0) & (vals < np.inf)))
    if cell is not None:
        raise NonPositiveEntry(*cell)
    one_sided = mask != mask.T
    with np.errstate(over="ignore"):
        expected = 1.0 / vals
    back = vals.T
    off_by = np.abs(back - expected) > RECIPROCITY_RTOL * np.maximum(back, expected)
    # one_sided is symmetric, so its first cell in row-major order lies above the diagonal
    cell = _first_cell(one_sided | (off_by & ~np.tri(n, dtype=bool)))
    if cell is not None:
        i, j = cell
        if one_sided[i, j]:
            raise ReciprocityViolation(
                i,
                j,
                "entries (%d,%d) and (%d,%d) must both be present or both missing"
                % (i + 1, j + 1, j + 1, i + 1),
            )
        raise ReciprocityViolation(i, j)
    return PCMatrix(vals, mask)


def _first_cell(bad):
    """(i, j) of the first True cell of a square mask in row-major order, or None."""
    hits = np.flatnonzero(bad)
    return divmod(int(hits[0]), bad.shape[1]) if hits.size else None


def is_complete(m):
    """True iff no off-diagonal entry is missing."""
    return bool(m.defined.all())


_FRACTION_RE = re.compile(r"^(\d+)/(\d+)$")


def _parse_token(tok):
    """One matrix token other than "?" -> float; raises ValueError on junk."""
    if "/" in tok:  # float() takes no "/", so only a fraction can parse
        frac = _FRACTION_RE.match(tok)
        if frac:
            a, b = int(frac.group(1)), int(frac.group(2))
            if a == 0 or b == 0:
                raise ValueError("fraction %r must have positive integer parts" % tok)
            return a / b
    try:
        return float(tok)
    except ValueError:
        raise ValueError("bad token %r" % tok) from None


def parse_matrix(text):
    """Parse the plain-text matrix format.

    Lines starting with '#' (after optional whitespace) and blank lines
    are skipped.  The first data line holds n; the next n data lines
    hold n whitespace-separated tokens each.  A token is a positive
    decimal, a fraction "a/b" of positive integers, or "?" for a missing
    comparison.  Reciprocal cells must agree within 1e-12 relative
    tolerance; the stored value is the upper-triangle token and the
    lower triangle is recomputed as its exact reciprocal.
    """
    data = []  # (line_no, content)
    for no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        data.append((no, stripped))
    if not data:
        raise MatrixSyntaxError(1, "empty input")
    no, head = data[0]
    try:
        n = int(head)
    except ValueError:
        raise MatrixSyntaxError(no, "expected the matrix size, got %r" % head) from None
    if n < 3:
        raise BadSize("need at least 3 alternatives, got %d (line %d)" % (n, no))
    if len(data) - 1 < n:
        raise MatrixSyntaxError(
            data[-1][0], "expected %d matrix rows, got %d" % (n, len(data) - 1)
        )
    if len(data) - 1 > n:
        raise MatrixSyntaxError(data[n + 1][0], "unexpected extra line after the matrix")
    # flat row-major positions and values of the defined cells
    cells = []
    nums = []
    for r in range(n):
        no, line = data[r + 1]
        toks = line.split()
        if len(toks) != n:
            raise MatrixSyntaxError(no, "expected %d tokens, got %d" % (n, len(toks)))
        cols = [c for c, tok in enumerate(toks) if tok != "?"]
        try:
            nums += [_parse_token(toks[c]) for c in cols]
        except ValueError as exc:
            raise MatrixSyntaxError(no, str(exc)) from None
        cells += [r * n + c for c in cols]
    vals = np.ones(n * n)
    vals[cells] = nums
    mask = np.zeros(n * n, dtype=bool)
    mask[cells] = True
    return _checked(vals.reshape(n, n), mask.reshape(n, n))


def _format_value(x):
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def serialize_matrix(m):
    """Inverse of parse_matrix: parse(serialize(m)) == m exactly."""
    lines = [str(m.n)]
    for i in range(m.n):
        toks = []
        for j in range(m.n):
            if not m.defined[i, j]:
                toks.append("?")
            else:
                toks.append(_format_value(float(m.values[i, j])))
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"
