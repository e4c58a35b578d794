"""Read-only arrays that no caller can write to."""

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
