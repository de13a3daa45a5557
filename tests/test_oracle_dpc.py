"""DuckDB-oracle checks of the DPC quantities via ``assert_equivalent``.

The SQL formulations are independent of every numpy/kd-tree code path:
rho is a self-join range count, the dependent point is a window-function
argmin over higher-density points. A broken traversal or a wrong strict
inequality shows up here as a row diff, not as "it ran".
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core.exdpc import ex_dpc
from repro.core.scan import scan_dpc
from repro.core.types import DPCParams, tiebreak
from repro.oracle import assert_equivalent
from tests.conftest import make_blobs


def _pts_table(pts: np.ndarray) -> pd.DataFrame:
    return pd.DataFrame(
        {"id": np.arange(len(pts)), "x": pts[:, 0], "y": pts[:, 1]}
    )


_RHO_SQL = """
SELECT a.id AS id, CAST(count(b.id) AS BIGINT) AS rho
FROM pts a LEFT JOIN pts b
  ON a.id <> b.id
 AND (a.x-b.x)*(a.x-b.x) + (a.y-b.y)*(a.y-b.y) < {dcut2}
GROUP BY a.id
"""

_DEP_SQL = """
WITH cand AS (
  SELECT a.id AS id, b.id AS dep,
         sqrt((a.x-b.x)*(a.x-b.x) + (a.y-b.y)*(a.y-b.y)) AS delta,
         row_number() OVER (
           PARTITION BY a.id
           ORDER BY (a.x-b.x)*(a.x-b.x) + (a.y-b.y)*(a.y-b.y), b.id
         ) AS rn
  FROM keyed a JOIN keyed b ON b.key > a.key
)
SELECT id, dep, delta FROM cand WHERE rn = 1
"""


@pytest.mark.parametrize("algo", [scan_dpc, ex_dpc])
@pytest.mark.parametrize("seed", [0, 1])
def test_rho_matches_duckdb(spark, algo, seed):
    pts = make_blobs(n_per=60, k=3, seed=seed)
    params = DPCParams(d_cut=8.0)
    res = algo(pts, params, spark=spark)
    got = spark.createDataFrame(
        pd.DataFrame({"id": np.arange(len(pts)), "rho": res.rho})
    )
    assert_equivalent(
        got, _RHO_SQL.format(dcut2=params.d_cut**2), pts=_pts_table(pts)
    )


def test_oracle_catches_wrong_result(spark):
    # The oracle's negative self-test: ρ off by one at a single id fails.
    pts = make_blobs(n_per=40, k=2, seed=4)
    params = DPCParams(d_cut=8.0)
    rho = ex_dpc(pts, params).rho.copy()
    rho[7] += 1
    wrong = spark.createDataFrame(pd.DataFrame({"id": np.arange(len(pts)), "rho": rho}))
    with pytest.raises(AssertionError):
        assert_equivalent(
            wrong, _RHO_SQL.format(dcut2=params.d_cut**2), pts=_pts_table(pts)
        )


@pytest.mark.parametrize("algo", [scan_dpc, ex_dpc])
def test_dependent_point_matches_duckdb(spark, algo):
    pts = make_blobs(n_per=50, k=3, seed=2)
    n = len(pts)
    params = DPCParams(d_cut=8.0)
    res = algo(pts, params, spark=spark)
    key = res.rho + tiebreak(n, params.seed)
    keyed = _pts_table(pts).assign(key=key)
    mask = res.dep >= 0  # the global peak has no dependent point
    got = spark.createDataFrame(
        pd.DataFrame(
            {
                "id": np.arange(n)[mask],
                "dep": res.dep[mask],
                "delta": res.delta[mask],
            }
        )
    )
    assert_equivalent(got, _DEP_SQL, keyed=keyed)


def test_noise_and_center_selection_matches_duckdb(spark):
    pts = make_blobs(n_per=60, k=3, n_noise=15, seed=3)
    params = DPCParams(d_cut=8.0, rho_min=5, delta_min=30.0)
    res = ex_dpc(pts, params, spark=spark)
    tbl = pd.DataFrame(
        {
            "id": np.arange(len(pts)),
            "rho": res.rho,
            "delta": np.where(np.isfinite(res.delta), res.delta, 1e308),
        }
    )
    got = spark.createDataFrame(
        pd.DataFrame(
            {
                "id": np.arange(len(pts)),
                "is_noise": res.noise,
                "is_center": np.isin(np.arange(len(pts)), res.centers),
            }
        )
    )
    sql = f"""
    SELECT id,
           rho < {params.rho_min} AS is_noise,
           (rho >= {params.rho_min}) AND (delta >= {params.delta_min}) AS is_center
    FROM tbl
    """
    assert_equivalent(got, sql, tbl=tbl)
