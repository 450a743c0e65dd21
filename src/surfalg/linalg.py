"""Exact dense linear algebra over a prime field F_p, on top of numpy int64.

All matrices are numpy arrays with dtype int64 and entries reduced to
[0, p).  A product of two entries is at most (p-1)**2, so matmul, whose
entries sum k such products for an inner dimension k, is exact only while
(p-1)**2 * k < 2**63; it raises ValueError naming p and k otherwise, and
rref needs the same bound with k = 1.  The default modulus is far inside
both.

rref has two paths with one result.  A matrix of at most _LIST_CELLS
(1000) entries is eliminated as lists of Python ints; a larger one as a
numpy array.  The matrices of a periodicity run are small and sparse: of
the 464 that one round of the benchmark's periodicity workload hands to
rref (56535 entries, 19% of them nonzero), 445 have at most 250 entries.
On those the numpy path spends its time in per-column calls, not in
arithmetic.  Timed on that round's inputs, 40 interleaved repetitions on
a 2-core x86-64 container, the medians were 38.3 ms with numpy
throughout, 18.8 ms with lists throughout and 18.6 ms with lists up to
1000 entries.  Of the four matrices above 1000 entries (289 x 41,
190 x 32, 17 x 211, 14 x 194), three are faster on numpy and one about
even.  On dense random matrices of about 1000 entries numpy stays 2-3
times faster, so the cutoff suits the sparse inputs the package produces.

Both paths update, for each pivot in column c, only columns c onward and
only the rows with a nonzero entry in column c; the list path also skips
the pivot row's zero entries.  This relies on an invariant of the
elimination: when column c is reached, the rows from the next pivot row
down are zero left of c.  The pivot row is one of them, so subtracting a
multiple of it changes nothing left of c, and nothing in a row whose entry
in c is zero.  The RREF of a row space is unique, so the result equals
that of the full update.

Vectors are rows throughout the package: matrices act on the right.
"""

import numpy as np

DEFAULT_PRIME = 32003

# rref eliminates a matrix of at most this many entries as Python lists
# (see the module docstring)
_LIST_CELLS = 1000

__all__ = [
    "DEFAULT_PRIME",
    "is_prime",
    "inv_mod",
    "rref",
    "nullspace",
    "left_nullspace",
    "matmul",
    "is_invertible",
    "det_int",
]


def is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def inv_mod(a, p):
    """Multiplicative inverse of a modulo the prime p."""
    a = int(a) % p
    if a == 0:
        raise ZeroDivisionError("inverse of 0 mod %d" % p)
    return pow(a, p - 2, p)


class _InexactField(ValueError):
    """The modulus is too large for exact int64 arithmetic."""


def _check_exact(p, k):
    """Raise unless sums of k products of residues mod p fit in int64."""
    if (p - 1) ** 2 * k >= 2 ** 63:
        raise _InexactField(
            "field modulus %d is too large for exact int64 arithmetic with "
            "inner dimension %d: (p-1)^2 * %d must stay below 2^63"
            % (p, k, k))


def rref(a, p):
    """Reduced row echelon form over F_p.

    A matrix of at most _LIST_CELLS (1000) entries is eliminated as lists
    of Python ints, a larger one in numpy; the module docstring gives the
    measurement behind the cutoff.  Both give the same arrays.

    Args:
        a: 2d int64 array (not modified).
        p: prime modulus.

    Returns:
        (r, pivots) where r, an int64 array of shape (rank, ncols), holds
        the nonzero rows of the RREF and pivots is the list of pivot
        column indices, one per row of r.
    """
    _check_exact(p, 1)
    a = np.mod(np.asarray(a, dtype=np.int64), p)
    if a.ndim != 2:
        raise ValueError("rref expects a 2d array")
    if a.size <= _LIST_CELLS:
        return _rref_rows(a, p)
    nrows, ncols = a.shape
    r = 0
    pivots = []
    for c in range(ncols):
        if r == nrows:
            break
        nz = a[:, c].nonzero()[0]
        k = int(nz.searchsorted(r))
        if k == nz.size:
            continue
        i = int(nz[k])
        if i != r:
            a[[r, i], c:] = a[[i, r], c:]
        if a[r, c] != 1:
            a[r, c:] = a[r, c:] * inv_mod(a[r, c], p) % p
        # nz still lists the rows to clear, less i: row i now holds the old
        # row r, which is zero in column c whenever i != r
        rows = nz[nz != i]
        if rows.size:
            a[rows, c:] = (a[rows, c:] - a[rows, c, None] * a[r, c:]) % p
        pivots.append(c)
        r += 1
    return a[:r], pivots


def _rref_rows(a, p):
    """rref of a reduced 2d int64 array, eliminated as lists of Python ints."""
    nrows, ncols = a.shape
    rows = a.tolist()
    r = 0
    pivots = []
    for c in range(ncols):
        if r == nrows:
            break
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        pivot = rows[r]
        x = pivot[c]
        if x != 1:
            x = pow(x, p - 2, p)
            pivot[c:] = [v * x % p for v in pivot[c:]]
        # the inputs are sparse: subtract only the pivot row's nonzero entries
        tail = [(k, v) for k, v in enumerate(pivot[c + 1:], c + 1) if v]
        for row in rows:
            f = row[c]
            if f and row is not pivot:
                row[c] = 0
                for k, v in tail:
                    row[k] = (row[k] - f * v) % p
        pivots.append(c)
        r += 1
    return np.array(rows[:r], dtype=np.int64).reshape(r, ncols), pivots


def nullspace(a, p):
    """Basis of the right kernel {x : a @ x = 0}, x read as a column.

    Returns:
        (n, free) where the rows of n span the kernel and free lists the
        free column indices; row i of n has a 1 in column free[i] and 0 in
        every other free column, so kernel coordinates can be read off at
        the free positions directly.
    """
    a = np.asarray(a, dtype=np.int64)
    ncols = a.shape[1]
    r, pivots = rref(a, p)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    n = np.zeros((len(free), ncols), dtype=np.int64)
    n[np.arange(len(free)), free] = 1
    n[:, pivots] = (-r[:, free].T) % p
    return n, free


def left_nullspace(a, p):
    """Basis (as rows) of {x : x @ a = 0} in coordinate-readable form."""
    return nullspace(np.asarray(a, dtype=np.int64).T, p)


def matmul(a, b, p):
    """a @ b mod p; ValueError if the field is too large for int64."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    _check_exact(p, a.shape[-1])
    return np.mod(a @ b, p)


def is_invertible(a, p):
    a = np.asarray(a, dtype=np.int64)
    if a.shape[0] != a.shape[1]:
        return False
    return a.shape[0] == 0 or rref(a, p)[0].shape[0] == a.shape[0]


def det_int(a):
    """Exact integer determinant (Bareiss, fraction-free).

    Works on plain Python integers so there is no overflow; intended for
    the small integer matrices produced by Cartan counts.
    """
    m = [[int(x) for x in row] for row in np.asarray(a)]
    n = len(m)
    if n == 0:
        return 1
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
