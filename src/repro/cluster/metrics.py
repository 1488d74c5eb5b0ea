"""Execution metrics collected by the simulated cluster engine.

Every engine primitive records what it did (pages read, seeks, bytes moved,
jobs launched, CPU-seconds charged) under a *phase* label such as
``"transform"`` or ``"compute"``.  The benchmark harness uses these counters
to explain *why* one GD plan beats another (e.g. the shuffled-partition
sampler reading orders of magnitude fewer pages than Bernoulli).
"""

from __future__ import annotations

import collections
import dataclasses


@dataclasses.dataclass
class PhaseMetrics:
    """Counters for one execution phase."""

    sim_seconds: float = 0.0
    pages_disk: int = 0
    pages_mem: int = 0
    seeks: int = 0
    network_bytes: int = 0
    packets: int = 0
    cpu_seconds: float = 0.0
    rows_processed: int = 0
    jobs: int = 0

    def merge(self, other: "PhaseMetrics") -> None:
        """Accumulate ``other`` into this instance."""
        self.sim_seconds += other.sim_seconds
        self.pages_disk += other.pages_disk
        self.pages_mem += other.pages_mem
        self.seeks += other.seeks
        self.network_bytes += other.network_bytes
        self.packets += other.packets
        self.cpu_seconds += other.cpu_seconds
        self.rows_processed += other.rows_processed
        self.jobs += other.jobs


class MetricsRecorder:
    """Aggregates :class:`PhaseMetrics` per phase label."""

    def __init__(self):
        self._phases = collections.defaultdict(PhaseMetrics)

    def phase(self, name) -> PhaseMetrics:
        """Return (creating if needed) the metrics bucket for ``name``."""
        return self._phases[name]

    def record_time(self, phase, seconds) -> None:
        self._phases[phase].sim_seconds += seconds

    @property
    def phases(self) -> dict:
        """Mapping of phase name to its :class:`PhaseMetrics`."""
        return dict(self._phases)

    @property
    def total_seconds(self) -> float:
        return sum(p.sim_seconds for p in self._phases.values())

    @property
    def total_jobs(self) -> int:
        return sum(p.jobs for p in self._phases.values())

    @property
    def total_network_bytes(self) -> int:
        return sum(p.network_bytes for p in self._phases.values())

    def snapshot(self) -> dict:
        """Return a plain-dict copy (suitable for JSON / assertions)."""
        return {
            name: dataclasses.asdict(phase)
            for name, phase in sorted(self._phases.items())
        }

    def summary(self) -> str:
        """Human-readable multi-line summary, one row per phase."""
        lines = [
            f"{'phase':<14} {'sim_s':>10} {'pages_disk':>11} {'pages_mem':>10}"
            f" {'seeks':>8} {'net_bytes':>12} {'jobs':>6}"
        ]
        for name, p in sorted(self._phases.items()):
            lines.append(
                f"{name:<14} {p.sim_seconds:>10.4f} {p.pages_disk:>11}"
                f" {p.pages_mem:>10} {p.seeks:>8} {p.network_bytes:>12} {p.jobs:>6}"
            )
        lines.append(
            f"{'TOTAL':<14} {self.total_seconds:>10.4f} "
            f"{sum(p.pages_disk for p in self._phases.values()):>11} "
            f"{sum(p.pages_mem for p in self._phases.values()):>10} "
            f"{sum(p.seeks for p in self._phases.values()):>8} "
            f"{self.total_network_bytes:>12} {self.total_jobs:>6}"
        )
        return "\n".join(lines)
