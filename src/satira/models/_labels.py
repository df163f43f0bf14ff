"""The label check every trainer runs before it fits."""

import numpy as np

from ..errors import DataError


def binary_labels(y, n_rows: int, rows: str) -> np.ndarray:
    """``y`` as a float64 vector of 0/1 labels, one per row.

    The values are checked as given, so 0.5 or 1.7 is rejected, never
    truncated to a class. ``rows`` names the rows in the length error.
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if len(y) != n_rows:
        raise DataError(f"labels length {len(y)} != {rows} {n_rows}")
    if not np.isin(y, (0.0, 1.0)).all():
        raise DataError("labels must be binary 0/1 (1 = fake)")
    return y
