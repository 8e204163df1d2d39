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

    The pairs are sorted row-major with no duplicates.  For a generator
    matrix G they are also the edges (variable, check) of the code's normal
    graph, so every layer that reads G reads this one array.
    """

    __slots__ = ("rows", "cols", "edges")

    def __init__(self, rows: int, cols: int, row_supports):
        if len(row_supports) != rows:
            raise ValueError(f"need {rows} row supports, got {len(row_supports)}")
        supports = [np.asarray(s, dtype=np.int64).reshape(-1) for s in row_supports]
        row = np.repeat(np.arange(rows, dtype=np.int64), [s.size for s in supports])
        col = np.concatenate([np.empty(0, dtype=np.int64), *supports])
        self._store(rows, cols, np.column_stack([row, col]))

    def _store(self, rows: int, cols: int, edges: np.ndarray) -> None:
        """Check an (nnz, 2) int64 array no caller holds, and keep it read-only."""
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        if edges.size and (
            edges.min() < 0
            or edges[:, 0].max() >= rows
            or edges[:, 1].max() >= cols
            or np.any(np.diff(edges[:, 0] * cols + edges[:, 1]) <= 0)
        ):
            raise ValueError(f"entries must be unique, sorted row-major, inside {rows}x{cols}")
        # column-major, so that the row and the column arrays are contiguous views
        edges = np.asfortranarray(edges)
        edges.flags.writeable = False
        self.rows, self.cols, self.edges = rows, cols, edges

    @classmethod
    def _from_edges(cls, rows: int, cols: int, edges) -> "BitMatrix":
        m = cls.__new__(cls)
        m._store(rows, cols, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
        return m

    @classmethod
    def from_dense(cls, a) -> "BitMatrix":
        a = np.asarray(a)
        if a.ndim != 2:
            raise ValueError("expected a 2-D array")
        if a.size and a.max() > 1:
            raise ValueError("entries must be 0 or 1")
        return cls._from_edges(a.shape[0], a.shape[1], np.argwhere(a))

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls._from_edges(n, n, np.column_stack([np.arange(n), np.arange(n)]))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "BitMatrix":
        return cls._from_edges(rows, cols, [])

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


def _rows_as_ints(m: BitMatrix) -> list[int]:
    out = [0] * m.rows
    for i, j in m.edges.tolist():
        out[i] |= 1 << j
    return out


def rank(m: BitMatrix) -> int:
    """GF(2) rank by elimination on word-packed rows."""
    pivots: dict[int, int] = {}
    for r in _rows_as_ints(m):
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
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: bad header, expected 'rows cols'")
        rows, cols = int(header[0]), int(header[1])
        supports = []
        for i in range(rows):
            line = fh.readline()
            if line == "" and i < rows:
                raise ValueError(f"{path}: truncated after {i} rows")
            supports.append(np.array([int(t) for t in line.split()], dtype=np.int64))
        if fh.read().strip():
            raise ValueError(f"{path}: data after the {rows} rows the header announces")
    return BitMatrix(rows, cols, supports)
