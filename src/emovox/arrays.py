"""Read-only arrays that no caller can write to, and the blocks of a blocked
column reduction."""

from __future__ import annotations

import numpy as np


def frozen(values, dtype=np.float64) -> np.ndarray:
    """``values`` as a read-only ``dtype`` array that shares no writable memory.

    A read-only ndarray of ``dtype`` that owns its data, as
    ``modelio.read_container`` gives, is kept as it is.  Anything else is
    copied once, so later writes to the caller's array leave the result
    unchanged.
    """
    if (type(values) is np.ndarray and values.dtype == dtype
            and not values.flags.writeable and values.flags.owndata):
        return values
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


def column_blocks(n: int, size: int) -> list:
    """(lo, hi) blocks of ``size`` columns covering n columns.

    A last block of one column joins the one before: NumPy sums a lone
    contiguous column pairwise and hands a one-row matrix product to another
    BLAS kernel, so a block of one would change the bits of the whole-matrix
    call.  n = 0 gives one empty block.
    """
    edges = list(range(size, n, size))
    if edges and n - edges[-1] == 1:
        edges.pop()
    return list(zip([0] + edges, edges + [n]))
