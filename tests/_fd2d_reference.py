"""The Shortley-Weller Laplacian as one sparse matrix: the tests' reference operator.

khessian.fd2d never forms this matrix: its multigrid applies the same stencil by array
slices and keeps the boundary terms on the cut arms alone, and only the coarsest level is
a matrix, in LAPACK's band storage (fd2d._band).  The tests check each of those against
assemble_operator, which is built from the same pieces: the stencil (fd2d._stencil), its
rows as matrix entries (fd2d._entries) and the boundary terms (fd2d._boundary_terms).
"""

import numpy as np
import scipy.sparse as sp

from khessian import fd2d
from khessian.grid2d import Field2D


def assemble_operator(grid: Field2D, g):
    """Shortley-Weller Laplacian: (A, const, gvals), all in row-major order.

    A is the stencil on the interior unknowns as one CSR matrix, diagonal included and
    cut arms dropped; const carries the known boundary contributions, so A u + const
    approximates Delta u; gvals[i, t] is g at the end of node i's arm t (E, W, N, S), NaN
    where the arm is not cut.
    """
    n = grid.n_interior
    cols, cut, off, diag, arms = fd2d._stencil(grid.domain, grid.h, grid.lx, grid.ly)
    vals, cols = fd2d._entries(cols, cut, off, diag, grid.h)  # rows S, W, diagonal, E, N
    keep = cols >= 0  # entries of absent neighbours are left out
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(keep, axis=1))])
    A = sp.csr_matrix((vals[keep], cols[keep], indptr), shape=(n, n))
    const_cut, gcut = fd2d._boundary_terms(grid, cut, arms, g)
    const = np.zeros(n)
    const[cut] = const_cut
    gvals = np.full((n, 4), np.nan)
    gvals[cut[arms[0]], arms[1]] = gcut
    return A, const, gvals
