"""Communication accounting.

Every simulated message is logged with its phase tag ("fe-halo",
"contact-exchange", "map-transfer", ...), endpoints, and item count.
Benchmarks read phase totals; tests assert per-rank symmetry (bytes
sent = bytes received across the job).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Tuple


@dataclass
class PhaseTotals:
    """Aggregated traffic for one phase."""

    n_messages: int = 0
    n_items: int = 0

    def add(self, items: int) -> None:
        """Count one message of ``items`` data items."""
        self.n_messages += 1
        self.n_items += items


@dataclass
class CommLedger:
    """Ledger of all simulated communication in a run."""

    phases: Dict[str, PhaseTotals] = field(default_factory=dict)
    sent_by_rank: Dict[Tuple[str, int], int] = field(
        default_factory=lambda: defaultdict(int)
    )
    received_by_rank: Dict[Tuple[str, int], int] = field(
        default_factory=lambda: defaultdict(int)
    )

    def copy(self) -> "CommLedger":
        """An independent ledger with the same totals: phase totals
        copied, the per-rank maps copied as ``defaultdict(int)``s."""
        return CommLedger(
            phases={
                name: PhaseTotals(t.n_messages, t.n_items)
                for name, t in self.phases.items()
            },
            sent_by_rank=defaultdict(int, self.sent_by_rank),
            received_by_rank=defaultdict(int, self.received_by_rank),
        )

    def record(self, phase: str, src: int, dst: int, items: int) -> None:
        """Log one message of ``items`` data items from src to dst."""
        if items < 0:
            raise ValueError("items must be >= 0")
        if src == dst:
            return  # local handoff — never counted as communication
        self.phases.setdefault(phase, PhaseTotals()).add(items)
        self.sent_by_rank[(phase, src)] += items
        self.received_by_rank[(phase, dst)] += items

    def items(self, phase: str) -> int:
        """Total items moved in ``phase`` (0 for unknown phases)."""
        totals = self.phases.get(phase)
        return totals.n_items if totals else 0

    def messages(self, phase: str) -> int:
        """Total messages in ``phase``."""
        totals = self.phases.get(phase)
        return totals.n_messages if totals else 0

    def total_items(self) -> int:
        """Items moved across all phases."""
        return sum(t.n_items for t in self.phases.values())

    def max_rank_send(self, phase: str, k: int) -> int:
        """Largest per-rank send volume in a phase (hot-spot check)."""
        return max(
            (self.sent_by_rank.get((phase, r), 0) for r in range(k)),
            default=0,
        )

    def summary(self) -> Dict[str, Tuple[int, int]]:
        """``{phase: (n_messages, n_items)}`` for reporting."""
        return {
            name: (t.n_messages, t.n_items)
            for name, t in sorted(self.phases.items())
        }
