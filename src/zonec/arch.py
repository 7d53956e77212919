"""Parameterized machine model: zones, atom-grid geometry, trap assignment,
and AOD movement constraints.

Defaults model a representative zoned Rydberg array; every knob is
overridable through a key/value config file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

from .ir import Zone


class Policy(Enum):
    TYPE1 = "type1"  # fully zone-isolated execution (default)
    TYPE2 = "type2"  # local Raman allowed in the entangling zone
    TYPE3 = "type3"  # non-zoned, in-place execution with crosstalk


class Trap(Enum):
    SLM = "SLM"
    AOD = "AOD"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class MachineConfig:
    pulse_1q_us: float = 0.625  # BB1 pulse; RZ is virtual and free
    pulse_2q_us: float = 0.380  # global Rydberg pulse
    readout_time_us: float = 500.0
    trap_transfer_time_us: float = 150.0
    aod_speed_um_per_us: float = 0.55
    zone_gap_um: float = 20.0
    pitch_entangling_um: float = 12.0
    pitch_storage_um: float = 6.0
    array_rows: int = 41
    array_cols: int = 41
    coherence_in_storage_s: float = 100.0
    coherence_out_s: float = 4.0
    f_1q: float = 0.999
    f_2q: float = 0.995
    f_readout: float = 0.998
    f_transfer: float = 0.999
    xtalk_1q: float = 0.005
    xtalk_cz: float = 0.007
    physical_per_logical: int = 14
    policy: Policy = Policy.TYPE1

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigError(f"{f.name} must be finite")
        for name in ("array_rows", "array_cols"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.physical_per_logical < 2:
            raise ConfigError("physical_per_logical must be at least 2")
        for name in (
            "pulse_1q_us",
            "pulse_2q_us",
            "readout_time_us",
            "trap_transfer_time_us",
            "aod_speed_um_per_us",
            "zone_gap_um",
            "pitch_entangling_um",
            "pitch_storage_um",
            "coherence_in_storage_s",
            "coherence_out_s",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("f_1q", "f_2q", "f_readout", "f_transfer"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ConfigError(f"{name} must be in (0, 1]")

    def pitch_um(self, zone: Zone) -> float:
        """Site pitch in ``zone``: the storage grid is denser than the others."""
        return self.pitch_storage_um if zone is Zone.STORAGE else self.pitch_entangling_um

    @property
    def shuttle_unit_us(self) -> float:
        """Time to travel one entangling-zone lattice edge (~21.8 us)."""
        return self.pitch_entangling_um / self.aod_speed_um_per_us

    @property
    def min_ld_st_us(self) -> float:
        """Minimum zone-gap crossing time (~36.4 us)."""
        return self.zone_gap_um / self.aod_speed_um_per_us

    @property
    def zone_sites(self) -> int:
        return self.array_rows * self.array_cols

    @property
    def max_logical(self) -> int:
        return self.zone_sites // self.physical_per_logical


_CONFIG_FIELDS = {f.name: f for f in fields(MachineConfig)}


def load_config(path) -> MachineConfig:
    """Read a `key = value` (or `key: value`) config file; unset keys keep
    their defaults."""
    overrides = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#")[0].strip()
            if not line:
                continue
            if "=" in line:
                key, _, val = line.partition("=")
            elif ":" in line:
                key, _, val = line.partition(":")
            else:
                raise ConfigError(f"line {lineno}: expected `key = value`")
            key, val = key.strip(), val.strip()
            if key not in _CONFIG_FIELDS:
                raise ConfigError(f"line {lineno}: unknown parameter {key!r}")
            ftype = _CONFIG_FIELDS[key].type
            if key == "policy":
                overrides[key] = Policy(val.lower())
            elif ftype == "int":
                overrides[key] = int(val)
            else:
                overrides[key] = float(val)
    return MachineConfig(**overrides)


def dump_config(config: MachineConfig) -> str:
    lines = []
    for f in fields(MachineConfig):
        v = getattr(config, f.name)
        if isinstance(v, Policy):
            v = v.value
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


class LayoutError(ValueError):
    pass


@dataclass
class LogicalSite:
    """Mutable per-logical-qubit placement state owned by the scheduler."""

    index: int
    zone: Zone
    row: int
    col: int
    trap: Trap = Trap.SLM


@dataclass
class AtomLayout:
    config: MachineConfig
    qubits: list[LogicalSite]

    def site(self, q: int) -> LogicalSite:
        return self.qubits[q]

    def position_um(self, q: int) -> tuple[float, float]:
        """Physical anchor (x, y) with y measured from the zone border
        nearest the other zone (row 0 is the border row)."""
        s = self.qubits[q]
        pitch = self.config.pitch_um(s.zone)
        return s.col * pitch, s.row * pitch


@dataclass(frozen=True)
class AodMove:
    """Simultaneous AOD translation of a set of logical qubits.

    displacement maps qubit -> (d_row, d_col) in grid units of its zone.
    """

    displacements: dict

    @property
    def qubits(self):
        return tuple(sorted(self.displacements))


@dataclass(frozen=True)
class MoveViolation:
    reason: str
    qubits: tuple[int, ...]

    def __bool__(self):
        return False


def build_layout(config: MachineConfig, n_logical: int) -> AtomLayout:
    """Pack logical blocks row-major in the storage zone starting at the row
    adjacent to the entangling zone. Deterministic.

    Blocks occupy `physical_per_logical` consecutive sites in row-major
    order; the anchor is the first site.
    """
    if n_logical < 1:
        raise LayoutError("need at least one logical qubit")
    if n_logical * config.physical_per_logical > config.zone_sites:
        raise LayoutError(
            f"capacity exceeded: {n_logical} logical qubits need "
            f"{n_logical * config.physical_per_logical} sites, zone has "
            f"{config.zone_sites} (max {config.max_logical} logical qubits)"
        )
    qubits = []
    for q in range(n_logical):
        site = q * config.physical_per_logical
        qubits.append(
            LogicalSite(
                index=q,
                zone=Zone.STORAGE,
                row=site // config.array_cols,
                col=site % config.array_cols,
            )
        )
    return AtomLayout(config, qubits)


def validate_move(layout: AtomLayout, move: AodMove):
    """Check AOD order preservation and destination occupancy.

    Atoms moved simultaneously must keep their relative row order and
    relative column order (AOD tones cannot cross), and no destination may
    collide with a parked atom or another mover.
    """
    movers = move.qubits
    for q in movers:
        if layout.site(q).trap is not Trap.AOD:
            raise LayoutError(f"qubit {q} is not in an AOD trap")
    start = {q: (layout.site(q).row, layout.site(q).col) for q in movers}
    end = {
        q: (start[q][0] + move.displacements[q][0], start[q][1] + move.displacements[q][1])
        for q in movers
    }
    for i, a in enumerate(movers):
        for b in movers[i + 1 :]:
            for axis in (0, 1):
                da = start[a][axis] - start[b][axis]
                db = end[a][axis] - end[b][axis]
                if (da < 0 and db >= 0) or (da > 0 and db <= 0) or (da == 0 and db != 0):
                    return MoveViolation(
                        f"qubits {a} and {b} cross in "
                        f"{'row' if axis == 0 else 'column'} order",
                        (a, b),
                    )
    occupied = {
        (s.zone, s.row, s.col) for s in layout.qubits if s.index not in set(movers)
    }
    seen = set()
    for q in movers:
        dest = (layout.site(q).zone, *end[q])
        if dest in occupied or dest in seen:
            return MoveViolation(f"destination {end[q]} of qubit {q} occupied", (q,))
        seen.add(dest)
    return True


def move_duration_us(layout: AtomLayout, move: AodMove, config: MachineConfig) -> float:
    """Straight-line travel time: max over movers of path length / AOD speed."""
    worst = 0.0
    for q, (dr, dc) in move.displacements.items():
        pitch = config.pitch_um(layout.site(q).zone)
        worst = max(worst, math.hypot(dr * pitch, dc * pitch))
    return worst / config.aod_speed_um_per_us


def apply_move(layout: AtomLayout, move: AodMove) -> None:
    for q, (dr, dc) in move.displacements.items():
        s = layout.site(q)
        s.row += dr
        s.col += dc


def crossing_distance_um(
    layout: AtomLayout, q: int, dest_row: int, dest_col: int, dest_zone: Zone
) -> float:
    """Euclidean distance for a zone-gap crossing from the current site to
    (dest_row, dest_col) in dest_zone. Row 0 of each zone faces the gap."""
    x0, y0 = layout.position_um(q)
    dest_pitch = layout.config.pitch_um(dest_zone)
    x1 = dest_col * dest_pitch
    y1 = dest_row * dest_pitch
    return math.hypot(x1 - x0, y0 + layout.config.zone_gap_um + y1)
