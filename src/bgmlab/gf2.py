"""GF(2) bit vectors and sparse binary matrices.

Bit vectors are plain numpy uint8 arrays with values in {0, 1}; XOR is the
`^` operator.  Matrices are stored as the array of their ones' (row, col)
positions, sorted row-major, because the generator matrices of interest
are very sparse, typically density 0.01 or below.  A dense uint8 view is
available for small matrices and oracle work.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bits_from_string",
    "bits_to_string",
    "BitMatrix",
    "mat_vec_mul",
    "rank",
    "save_matrix",
    "load_matrix",
]


def bits_from_string(s: str) -> np.ndarray:
    """Parse a string of '0'/'1' characters, ignoring whitespace."""
    stripped = "".join(s.split())
    if not set(stripped) <= {"0", "1"}:
        raise ValueError(f"not a bit string: {s!r}")
    return np.frombuffer(stripped.encode("ascii"), dtype=np.uint8) - ord("0")


def bits_to_string(v) -> str:
    return "".join("1" if b else "0" for b in np.asarray(v))


class BitMatrix:
    """Binary matrix stored as its ones: an (nnz, 2) array of (row, col) pairs.

    The pairs may be given in any order; they are kept sorted row-major, and
    a repeated pair or one outside rows x cols is refused.  For a generator
    matrix G they are also the edges (variable, check) of the code's normal
    graph, so every layer that reads G reads this one array.
    """

    __slots__ = ("rows", "cols", "edges")

    def __init__(self, rows: int, cols: int, edges):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        edges = np.asarray(edges)
        # an empty list arrives as float64 and is kept
        if edges.size and not np.issubdtype(edges.dtype, np.integer):
            raise ValueError(f"entries must be integer positions, got {edges.dtype}")
        edges = edges.astype(np.int64, copy=False).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or np.any(edges.max(axis=0) >= (rows, cols))):
            raise ValueError(f"entries must lie inside {rows}x{cols}")
        key = edges[:, 0] * cols + edges[:, 1]
        # sampled and loaded matrices arrive sorted and skip the sort
        if np.any(np.diff(key) <= 0):
            order = np.argsort(key)
            edges = edges[order]
            if np.any(np.diff(key[order]) == 0):
                raise ValueError("entries must be unique")
        # a column-major copy: the row and the column arrays are contiguous read-only views
        self.edges = np.array(edges, order="F")
        self.edges.flags.writeable = False
        self.rows, self.cols = rows, cols

    @classmethod
    def from_dense(cls, a) -> "BitMatrix":
        a = np.asarray(a)
        if a.ndim != 2:
            raise ValueError("expected a 2-D array")
        if a.size and a.max() > 1:
            raise ValueError("entries must be 0 or 1")
        return cls(a.shape[0], a.shape[1], np.argwhere(a))

    @property
    def row_supports(self) -> list[np.ndarray]:
        """Sorted column indices of each row, split off `edges` anew on each access."""
        ends = np.searchsorted(self.edges[:, 0], np.arange(self.rows + 1))
        return [self.edges[a:b, 1] for a, b in zip(ends[:-1], ends[1:])]

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.rows, self.cols), dtype=np.uint8)
        a[self.edges[:, 0], self.edges[:, 1]] = 1
        return a

    def row_weights(self) -> np.ndarray:
        return np.bincount(self.edges[:, 0], minlength=self.rows)

    def col_weights(self) -> np.ndarray:
        return np.bincount(self.edges[:, 1], minlength=self.cols)

    def nnz(self) -> int:
        return self.edges.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return (
            (self.rows, self.cols) == (other.rows, other.cols)
            and np.array_equal(self.edges, other.edges)
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.rows}x{self.cols}, nnz={self.nnz()})"


def mat_vec_mul(m: BitMatrix, v) -> np.ndarray:
    """Row-vector times matrix over GF(2): returns v @ m with XOR accumulation.

    `v` has one bit per matrix row; the result has one bit per column: the
    parity of the ones that sit in the rows v selects.
    """
    v = np.asarray(v)
    if v.shape != (m.rows,):
        raise ValueError(f"vector length {v.shape} does not match {m.rows} rows")
    selected = m.edges[:, 1][v[m.edges[:, 0]] != 0]
    return (np.bincount(selected, minlength=m.cols) & 1).astype(np.uint8)


def rank(m: BitMatrix) -> int:
    """GF(2) rank by elimination on word-packed rows."""
    rows = [0] * m.rows
    for i, j in m.edges.tolist():
        rows[i] |= 1 << j
    pivots: dict[int, int] = {}
    for r in rows:
        while r:
            lead = r.bit_length() - 1
            if lead in pivots:
                r ^= pivots[lead]
            else:
                pivots[lead] = r
                break
    return len(pivots)


def save_matrix(m: BitMatrix, path) -> None:
    """Write the text format: header 'rows cols', then one line of sorted
    column indices per row (empty line for an all-zero row)."""
    with open(path, "w") as fh:
        fh.write(f"{m.rows} {m.cols}\n")
        for s in m.row_supports:
            fh.write(" ".join(str(j) for j in s.tolist()))
            fh.write("\n")


def load_matrix(path) -> BitMatrix:
    """Read the text format; a row may list its columns in any order."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2 or not all(t.isdecimal() for t in header):
            raise ValueError(f"{path}: bad header, expected 'rows cols'")
        rows, cols = int(header[0]), int(header[1])
        edges = []
        for i in range(rows):
            line = fh.readline()
            if line == "":
                raise ValueError(f"{path}: truncated after {i} rows")
            tokens = line.split()
            support = {int(t) for t in tokens if t.isdecimal() and int(t) < cols}
            if len(support) < len(tokens):
                raise ValueError(f"{path}: row {i} must list distinct column indices in [0, {cols})")
            edges.extend((i, j) for j in sorted(support))
        if fh.read().strip():
            raise ValueError(f"{path}: data after the {rows} rows the header announces")
    return BitMatrix(rows, cols, edges)
