"""DPCParams / tiebreak convention and input-validation tests."""
from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.types import DPCParams, DPCResult, tiebreak
from repro.experiments import ALGORITHMS


class TestParams:
    def test_dcut_positive(self):
        with pytest.raises(ValueError):
            DPCParams(d_cut=0.0)
        with pytest.raises(ValueError):
            DPCParams(d_cut=-1.0)
        with pytest.raises(ValueError):  # NaN passes a `d_cut <= 0` check
            DPCParams(d_cut=float("nan"))

    @pytest.mark.parametrize("field", ["rho_min", "delta_min"])
    def test_nan_thresholds_rejected(self, field):
        with pytest.raises(ValueError):
            DPCParams(d_cut=1.0, **{field: float("nan")})

    def test_frozen(self):
        p = DPCParams(d_cut=1.0)
        with pytest.raises(Exception):
            p.d_cut = 2.0

    def test_defaults(self):
        p = DPCParams(d_cut=1.0)
        assert p.rho_min == 0.0 and p.delta_min == np.inf and p.seed == 777


class TestTiebreak:
    def test_deterministic(self):
        assert np.array_equal(tiebreak(100), tiebreak(100))

    def test_default_seed_is_the_params_seed(self):
        assert np.array_equal(tiebreak(100), tiebreak(100, DPCParams(d_cut=1.0).seed))

    def test_seed_changes(self):
        assert not np.array_equal(tiebreak(100, 1), tiebreak(100, 2))

    def test_open_interval(self):
        u = tiebreak(10_000)
        assert u.min() > 0.0 and u.max() < 1.0

    def test_breaks_integer_ties(self):
        """rho + jitter yields a strict total order on equal raw densities."""
        rho = np.full(1000, 7)
        key = rho + tiebreak(1000)
        assert len(np.unique(key)) == 1000

    def test_never_crosses_integer_boundary(self):
        rho = np.array([3, 4])
        key = rho + tiebreak(2)
        assert key[0] < 4 and key[1] < 5


class TestResult:
    def test_n_clusters(self):
        r = DPCResult(
            rho=np.zeros(3),
            delta=np.zeros(3),
            dep=np.zeros(3, dtype=np.int64),
            centers=np.array([0, 2]),
            noise=np.zeros(3, bool),
            labels=np.zeros(3, dtype=np.int64),
        )
        assert r.n_clusters == 2


_INVALID_POINTS = {
    "nan": np.array([[0.0, 1.0], [np.nan, 2.0], [3.0, 4.0]]),
    "inf": np.array([[0.0, 1.0], [np.inf, 2.0], [3.0, 4.0]]),
    "1-D": np.array([0.0, 1.0, 2.0]),
    "empty": np.empty((0, 2)),
}


@pytest.mark.parametrize("bad", list(_INVALID_POINTS))
@pytest.mark.parametrize("alg", list(ALGORITHMS))
def test_algorithms_reject_invalid_points(alg, bad):
    """Every algorithm validates its input before any phase runs."""
    ds = SimpleNamespace(points=_INVALID_POINTS[bad], eps_default=1.0)
    with pytest.raises(ValueError, match="points must"):
        ALGORITHMS[alg](ds, DPCParams(d_cut=1.0))
