"""The Jacobi residual over dense tensors: the bit reference that
``lattice_flows.poisson.jacobi_residual`` and ``compatibility_residual``
must reproduce.

For every triple i < j < k the cyclic sum runs over every l = 0, 1, ..., n-1,
adding ``pi[i,l]*dpi[l,j,k] + pi[j,l]*dpi[l,k,i] + pi[k,l]*dpi[l,i,j]``
(grouped left to right) to a running total that starts at zero, all triples
of all states together, one vector operation per l.  The tensors are the
dense (n, n, N) pi and (n, n, n, N) d pi of a structure, or of a pencil
given as a (first, second, lam) triple of structures, scattered from the
compiled compact rows.  The compiled kernel skips the groups whose three
terms each meet a structural zero; on finite states they add exact zeros
here.
"""

from itertools import combinations

import numpy as np


def jacobi_indices(n):
    """For every triple i < j < k < n, in lexicographic order: i, j, k and the
    flat positions j*n+k, k*n+i, i*n+j in an n x n matrix."""
    i, j, k = np.array(list(combinations(range(n), 3)), dtype=np.intp).reshape(-1, 3).T
    return i, j, k, j * n + k, k * n + i, i * n + j


def _scatter(sums, x, axes):
    """A compiled tensor (``poisson._Sums``) at the columns of x, scattered
    from its compact rows into a dense (n, ..., n, N) array."""
    out = np.zeros((len(x) ** axes, x.shape[1]), dtype=complex)
    out[sums.at] = sums(x)[:-1]
    return out.reshape((len(x),) * axes + (x.shape[1],))


def dense_tensors(structure, block):
    """The dense pi, (n, n, N), and d pi, (n, n, n, N) indexed [l, i, j, state],
    of a structure or of the pencil first + lam * second of a triple."""
    if isinstance(structure, tuple):
        first, second, lam = structure
        (pi, dpi), (pi2, dpi2) = dense_tensors(first, block), dense_tensors(second, block)
        return pi + lam * pi2, dpi + lam * dpi2
    plan, x = structure._plan(block), block.columns
    return _scatter(plan.pi, x, 2), _scatter(plan.dpi, x, 3)


def dense_jacobi_residual(structure, block):
    """Max over index triples of the cyclic Jacobi sum at each state, from the dense tensors."""
    pi, dpi = dense_tensors(structure, block)
    n = block.dim
    i, j, k, jk, ki, ij = jacobi_indices(n)
    columns = pi.transpose(1, 0, 2).copy()  # columns[l] = pi[:, l], contiguous for take
    planes = dpi.reshape(n, n * n, -1)  # planes[l] = dpi[l] flattened
    total = np.zeros((len(i), pi.shape[-1]), dtype=complex)
    for l in range(n):
        p, d = columns[l], planes[l]
        total += (p.take(i, axis=0) * d.take(jk, axis=0) + p.take(j, axis=0) * d.take(ki, axis=0)
                  + p.take(k, axis=0) * d.take(ij, axis=0))
    return np.max(np.abs(total), axis=0, initial=0.0)
