"""Every resource limit in bellkit, named once; checks read them at call time."""

#: No dense array, enumeration or input-sized loop has more items: 4^N tensor entries
#: (N <= 10), coefficients, strategies, 2^(2^N) sign functions (N <= 4), restarts, scan points.
MAX_COUNT = 1 << 20

#: Sweeps of one optimizer restart; a restart still rising then is unconverged.
MAX_SWEEPS = 500


def max_pivots(rows: int, columns: int) -> int:
    """Pivots of one phase-1 simplex on a rows x columns system."""
    return 200 + 50 * (rows + columns)
