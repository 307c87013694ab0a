import numpy as np
import pytest

from cs_smooth.core import SensorMatrix, TimeGrid


@pytest.fixture
def write_dataset(tmp_path):
    """Write a matrix as a directory of per-sensor CSV files; returns the dir."""

    def _write(data, interval=1000, start=0, subdir="dataset"):
        data = np.asarray(data, dtype=float)
        root = tmp_path / subdir
        root.mkdir(parents=True, exist_ok=True)
        for i, row in enumerate(data):
            lines = [
                f"{start + k * interval},{float(value)!r}" for k, value in enumerate(row)
            ]
            (root / f"s{i:03d}.csv").write_text("\n".join(lines) + "\n")
        return root

    return _write


# interval x column passes 2**63 on both grids while every instant fits in
# int64; the second grid ends at the int64 maximum.
@pytest.fixture(params=[(-3 * 2**61, 2**61), (2**63 - 1 - 5 * (2**61 - 1), 2**61 - 1)])
def wrapping_matrix(request):
    """A one-sensor matrix on a 6-instant grid, and its instants as Python integers."""
    start, interval = request.param
    matrix = SensorMatrix(("s0",), TimeGrid(start, interval, 6), np.arange(6.0)[None])
    return matrix, [start + interval * k for k in range(6)]
