"""Statistics helpers and weight tables that only the tests use."""

from __future__ import annotations

import numpy as np

from fppslab.errors import DomainError

# the table quantile rounds one ulp above the node's x just below this node
BUMP_TABLE = ((0.0, 7.469165249815657e-05), (0.048356395927072526, 0.0007474162098489624),
              (1.0, 1.0))


def bootstrap_ci(values: np.ndarray, statistic, *, n_boot: int = 1000,
                 seed: int = 0, alpha: float = 0.05) -> tuple[float, float]:
    """Percentile bootstrap interval for ``statistic`` of an i.i.d. sample."""
    values = np.asarray(values)
    if len(values) < 2:
        raise DomainError("bootstrap needs at least two observations")
    rng = np.random.default_rng(seed)
    stats = np.empty(n_boot)
    n = len(values)
    for b in range(n_boot):
        stats[b] = statistic(values[rng.integers(0, n, size=n)])
    lo, hi = np.quantile(stats, [alpha / 2, 1 - alpha / 2])
    return float(lo), float(hi)
