"""Sequence evaluation: the Table-1 engine (paper §5).

Replays a snapshot sequence under each algorithm with the paper's
protocol — partition computed once on the first snapshot, kept fixed;
per step MCML+DT re-induces its descriptor tree while ML+RCB
incrementally re-fits its RCB decomposition — and averages the §5.1
metrics over the sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.mcml_dt import MCMLDTParams, MCMLDTPartitioner
from repro.core.ml_rcb import MLRCBParams, MLRCBPartitioner
from repro.core.weights import build_contact_graph
from repro.graph.metrics import load_imbalance
from repro.metrics.comm import fe_comm
from repro.metrics.report import MetricTable
from repro.obs.tracer import TracerBase, ensure_tracer
from repro.sim.sequence import MeshSequence


@dataclass
class StepMetrics:
    """Per-snapshot metric values (unused fields stay 0)."""

    step: int
    fe_comm: int = 0
    nt_nodes: int = 0
    n_remote: int = 0
    m2m_comm: int = 0
    upd_comm: int = 0
    imbalance_fe: float = 1.0
    imbalance_search: float = 1.0


@dataclass
class SequenceResult:
    """All per-step metrics for one (algorithm, k) run."""

    algorithm: str
    k: int
    steps: List[StepMetrics] = field(default_factory=list)

    def mean(self, name: str) -> float:
        """Average of a metric over the sequence (the paper's Table 1
        reports exactly these averages)."""
        return float(np.mean([getattr(s, name) for s in self.steps]))

    def total_fe_side_comm(self) -> float:
        """FE-side communication per iteration: FEComm plus the round
        trip of the mesh-to-mesh transfer (2 × M2MComm; §5.2)."""
        return self.mean("fe_comm") + 2.0 * self.mean("m2m_comm")

    def to_csv(self) -> str:
        """Per-step metrics as CSV text (for external plotting)."""
        names = [f.name for f in fields(StepMetrics)]
        lines = [",".join(names)] + [
            ",".join(str(getattr(s, n)) for n in names) for s in self.steps
        ]
        return "\n".join(lines) + "\n"

    def save_csv(self, path) -> None:
        """Write :meth:`to_csv` output to ``path``."""
        from pathlib import Path

        Path(path).write_text(self.to_csv())


def evaluate_mcml_dt(
    seq: MeshSequence,
    k: int,
    params: Optional[MCMLDTParams] = None,
    tracer: Optional[TracerBase] = None,
) -> SequenceResult:
    """Run MCML+DT over ``seq`` with a fixed partition and per-step
    descriptor re-induction (the paper's §5 protocol)."""
    params = params or MCMLDTParams()
    tracer = ensure_tracer(tracer)
    pt = MCMLDTPartitioner(k, params)
    pt.fit(seq[0], tracer=tracer)
    result = SequenceResult(algorithm="MCML+DT", k=k)
    for snapshot in seq:
        graph = build_contact_graph(snapshot, params.contact_edge_weight)
        tree, _ = pt.build_descriptors(snapshot, tracer=tracer)
        plan = pt.search_plan(snapshot, tree, tracer=tracer)
        imb = load_imbalance(graph, pt.part, k)
        result.steps.append(
            StepMetrics(
                step=snapshot.step,
                fe_comm=fe_comm(graph, pt.part),
                nt_nodes=tree.n_nodes,
                n_remote=plan.n_remote,
                imbalance_fe=float(imb[0]),
                imbalance_search=float(imb[1]),
            )
        )
    return result


def evaluate_ml_rcb(
    seq: MeshSequence,
    k: int,
    params: Optional[MLRCBParams] = None,
    tracer: Optional[TracerBase] = None,
) -> SequenceResult:
    """Run ML+RCB over ``seq``: fixed graph partition, incremental RCB
    updates, bbox-filter search."""
    params = params or MLRCBParams()
    tracer = ensure_tracer(tracer)
    pt = MLRCBPartitioner(k, params)
    pt.fit(seq[0], tracer=tracer)
    result = SequenceResult(algorithm="ML+RCB", k=k)
    for snapshot in seq:
        if snapshot.step > 0:
            pt.update(snapshot, tracer=tracer)
        graph = build_contact_graph(snapshot)
        plan = pt.search_plan(snapshot, tracer=tracer)
        imb = load_imbalance(graph, pt.part_fe, k)
        result.steps.append(
            StepMetrics(
                step=snapshot.step,
                fe_comm=fe_comm(graph, pt.part_fe),
                n_remote=plan.n_remote,
                m2m_comm=pt.m2m_comm_now(tracer=tracer),
                upd_comm=pt.last_upd_comm,
                imbalance_fe=float(imb[0]),
            )
        )
    return result


@dataclass(frozen=True)
class Claim:
    """One §5.2 shape claim checked on measured values. ``margin`` is
    the relative distance from its threshold, negative when not held."""

    text: str
    held: bool
    margin: float

    def __str__(self) -> str:
        verdict = "held" if self.held else "NOT HELD"
        return f"  {verdict:<8}  {self.margin:+7.1%}  {self.text}"


def _slack(value: float, bound: float) -> float:
    """Relative distance of ``value`` below ``bound``."""
    return (bound - value) / bound if bound else 0.0


def _mean_max(result: SequenceResult, name: str) -> List[str]:
    """Mean and max of an imbalance field, three decimals each."""
    values = [getattr(s, name) for s in result.steps]
    return [f"{np.mean(values):.3f}", f"{max(values):.3f}"]


@dataclass
class Table1:
    """Table 1: the per-(algorithm, k) :class:`SequenceResult` runs,
    rendered in the paper's layout and checked against §5.2."""

    results: Dict[Tuple[str, int], SequenceResult] = field(
        default_factory=dict)

    def render(self) -> str:
        """The paper's five columns, the FE-side total (FEComm +
        2 × M2MComm) and each constraint's mean / max imbalance over
        the sequence (0 where a column does not apply)."""
        n = len(next(iter(self.results.values())).steps)
        table = MetricTable(
            f"Table 1 — averages over {n} snapshots",
            ["FEComm", "NTNodes", "NRemote", "M2MComm", "UpdComm",
             "FE-side total", "w1 imb mean", "w1 imb max", "w2 imb mean",
             "w2 imb max"],
        )
        for k in dict.fromkeys(k for _, k in self.results):
            mc, ml = self.results["MCML+DT", k], self.results["ML+RCB", k]
            table.add_row(f"{k}-way MCML+DT", [
                mc.mean("fe_comm"), mc.mean("nt_nodes"),
                mc.mean("n_remote"), 0, 0, mc.total_fe_side_comm(),
                *_mean_max(mc, "imbalance_fe"),
                *_mean_max(mc, "imbalance_search"),
            ])
            table.add_row(f"{k}-way ML+RCB", [
                ml.mean("fe_comm"), 0, ml.mean("n_remote"),
                ml.mean("m2m_comm"), ml.mean("upd_comm"),
                ml.total_fe_side_comm(), *_mean_max(ml, "imbalance_fe"),
                0, 0,
            ])
        return table.render()

    def claims(self) -> List[Claim]:
        """The §5.2 shape claims at each k, plus the k-trend of the
        FE-side ratio when there are several k."""
        out, ratios = [], []
        for k in dict.fromkeys(k for _, k in self.results):
            mc, ml = self.results["MCML+DT", k], self.results["ML+RCB", k]
            fe, ml_fe = mc.mean("fe_comm"), ml.mean("fe_comm")
            tot, ml_tot = mc.total_fe_side_comm(), ml.total_fe_side_comm()
            nrem = mc.mean("n_remote")
            cap = 2.5 * max(ml.mean("n_remote"), 1.0)
            nt, upd = mc.mean("nt_nodes"), ml.mean("upd_comm")
            ratios.append(ml_tot / tot if tot else 0.0)
            out += [
                Claim(f"{k}-way raw FEComm: ML+RCB <= 1.10 x MCML+DT",
                      ml_fe <= fe * 1.10, _slack(ml_fe, fe * 1.10)),
                Claim(f"{k}-way FE-side total: ML+RCB > MCML+DT",
                      ml_tot > tot, -_slack(ml_tot, tot)),
                Claim(f"{k}-way NRemote: MCML+DT <= 2.5 x max(ML+RCB, 1)",
                      nrem <= cap, _slack(nrem, cap)),
                Claim(f"{k}-way NTNodes < FEComm and UpdComm < FEComm",
                      nt < fe and upd < ml_fe,
                      min(_slack(nt, fe), _slack(upd, ml_fe))),
            ]
        pairs = list(zip(ratios, ratios[1:]))
        if pairs:
            out.append(Claim(
                "FE-side ratio ML+RCB / MCML+DT non-increasing in k "
                "(within 10 %) and > 1 at the smallest k",
                all(b <= a * 1.10 for a, b in pairs) and ratios[0] > 1.0,
                min([_slack(b, a * 1.10) for a, b in pairs]
                    + [-_slack(ratios[0], 1.0)]),
            ))
        return out


def table1(
    seq: MeshSequence,
    ks: Sequence[int] = (25, 100),
    mcml_params: Optional[MCMLDTParams] = None,
    ml_params: Optional[MLRCBParams] = None,
    tracer: Optional[TracerBase] = None,
) -> Table1:
    """Regenerate Table 1: both algorithms at each ``k`` over ``seq``.
    A recording ``tracer`` groups each run under ``mcml-dt`` /
    ``ml-rcb`` spans."""
    tracer = ensure_tracer(tracer)
    table = Table1()
    for k in ks:
        with tracer.span("mcml-dt"):
            mc = evaluate_mcml_dt(seq, k, mcml_params, tracer=tracer)
        with tracer.span("ml-rcb"):
            ml = evaluate_ml_rcb(seq, k, ml_params, tracer=tracer)
        table.results.update({("MCML+DT", k): mc, ("ML+RCB", k): ml})
    return table
