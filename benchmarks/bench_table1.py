"""Table 1: MCML+DT vs ML+RCB over the 100-snapshot sequence.

Times each algorithm's evaluation at paper scale, then checks the
paper's §5.2 shape claims through :meth:`repro.core.pipeline.Table1.claims`
and prints the table (``repro-contact table1 --scale paper`` prints
the same table without the timings).
"""

from __future__ import annotations

import pytest

from repro.core.mcml_dt import MCMLDTParams
from repro.core.ml_rcb import MLRCBParams
from repro.core.pipeline import Table1, evaluate_mcml_dt, evaluate_ml_rcb

from .conftest import BENCH_KS, record, strong_options

_TABLE = Table1()


@pytest.mark.parametrize("k", BENCH_KS)
def test_table1_mcml_dt(benchmark, bench_sequence, k):
    params = MCMLDTParams(options=strong_options())
    result = benchmark.pedantic(
        evaluate_mcml_dt, (bench_sequence, k, params), rounds=1, iterations=1
    )
    _TABLE.results["MCML+DT", k] = result
    record(benchmark, fe_comm=result.mean("fe_comm"))


@pytest.mark.parametrize("k", BENCH_KS)
def test_table1_ml_rcb(benchmark, bench_sequence, k):
    params = MLRCBParams(options=strong_options())
    result = benchmark.pedantic(
        evaluate_ml_rcb, (bench_sequence, k, params), rounds=1, iterations=1
    )
    _TABLE.results["ML+RCB", k] = result
    record(benchmark, fe_comm=result.mean("fe_comm"))


def test_table1_claims(capsys):
    """Every §5.2 claim holds at paper scale (runs after the two
    benches above fill the table, in the same session)."""
    if len(_TABLE.results) < 2 * len(BENCH_KS):
        pytest.skip("table1 benches must run first (same session)")
    claims = _TABLE.claims()
    with capsys.disabled():
        print("\n" + _TABLE.render())
        print("\n".join(map(str, claims)))
    assert all(c.held for c in claims), [str(c) for c in claims]
