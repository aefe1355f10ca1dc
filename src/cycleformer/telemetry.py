"""Per-application diagnostics captured during a forward pass."""
from __future__ import annotations

from dataclasses import dataclass, field


def aggregate(values):
    """A cycle's value from its applications' values: their mean."""
    return sum(values) / len(values)


@dataclass(frozen=True)
class CycleRecord:
    """One cycled application: which layer, which cycle, what it measured.

    zero_attn is the slot-0 attention weight averaged over batch, heads and
    query positions (None when the variant has no zero token). gate is the
    mean FFN gate (None when gating is off).
    """

    layer: int
    cycle: int
    zero_attn: float | None
    gate: float | None


@dataclass
class CycleTelemetry:
    records: list[CycleRecord] = field(default_factory=list)

    def add(self, layer: int, cycle: int, zero_attn: float | None, gate: float | None) -> None:
        self.records.append(CycleRecord(layer, cycle, zero_attn, gate))

    def values_by_cycle(self, name: str) -> dict[int, list]:
        """Each cycle's non-None values of one record field, in record order."""
        out: dict[int, list] = {}
        for r in self.records:
            value = getattr(r, name)
            if value is not None:
                out.setdefault(r.cycle, []).append(value)
        return dict(sorted(out.items()))

    def zero_attn_by_cycle(self) -> dict[int, float]:
        return {c: aggregate(v) for c, v in self.values_by_cycle("zero_attn").items()}

    def gate_by_cycle(self) -> dict[int, float]:
        return {c: aggregate(v) for c, v in self.values_by_cycle("gate").items()}
