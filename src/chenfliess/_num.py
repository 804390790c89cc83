"""Reduction helpers with thread-count-independent results.

BLAS matrix products can change summation order with the thread pool, so
anything feeding a byte-reproducible report goes through these instead:
broadcast multiply plus numpy's pairwise-sum reduction, whose order
depends only on shapes and strides. With two or more output columns,
det_matmul runs numpy's C einsum loop instead (no BLAS, one thread): it
adds A[i, j] B[j, :] over j in order, as the broadcast sum does, so the
bits are the same. With one column einsum would sum pairwise.
"""

from __future__ import annotations

import numpy as np

# cap the broadcast temporary at ~8 MB; results do not depend on the cap.
# Temporaries of different sizes from successive calls can each stay
# resident in the allocator's heap, so the cap also bounds peak memory.
_CHUNK_ELEMENTS = 1_000_000


def det_matmul(A, B):
    """A @ B with a summation order fixed by the shapes alone."""
    A = np.ascontiguousarray(A, dtype=float)
    B = np.ascontiguousarray(B, dtype=float)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise ValueError(f"bad shapes {A.shape} x {B.shape}")
    if B.shape[1] >= 2:
        return np.einsum("ij,jk->ik", A, B, optimize=False)
    out = np.empty((A.shape[0], B.shape[1]))
    rows = max(1, _CHUNK_ELEMENTS // max(1, B.size))
    for s in range(0, A.shape[0], rows):
        block = A[s : s + rows]
        out[s : s + rows] = (block[:, :, None] * B[None, :, :]).sum(axis=1)
    return out


def det_matvec(A, v):
    A = np.ascontiguousarray(A, dtype=float)
    v = np.ascontiguousarray(v, dtype=float)
    return (A * v[None, :]).sum(axis=1)


def det_dot(u, v):
    u = np.ascontiguousarray(u, dtype=float)
    v = np.ascontiguousarray(v, dtype=float)
    return float((u * v).sum())


def det_norm(v):
    return float(np.sqrt((np.asarray(v, dtype=float) ** 2).sum()))
