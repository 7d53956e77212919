"""Parameterized machine model: zones, atom-grid geometry, every travel
time the scheduler charges, mover landing, traps, and the AOD order rule.

Defaults model a representative zoned Rydberg array; every knob is
overridable through a key/value config file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

from .ir import READOUT, STORAGE, Zone


class Policy(Enum):
    TYPE1 = "type1"  # fully zone-isolated execution (default)
    TYPE2 = "type2"  # local Raman allowed in the entangling zone
    TYPE3 = "type3"  # non-zoned, in-place execution with crosstalk


class Trap(Enum):
    SLM = "SLM"
    AOD = "AOD"


TYPE1, TYPE2, TYPE3 = Policy  # every member under its own name (see ``ir.Zone``)
SLM, AOD = Trap


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
    policy: Policy = TYPE1

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
        for name in ("xtalk_1q", "xtalk_cz"):  # so 1 - xtalk is in (0, 1] too
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1)")

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
    their defaults, and a key may be set once. ``MachineConfig`` checks each
    value alone as its line is read (no range rule spans fields), so every
    error names its line."""
    overrides = {}
    set_on = {}  # key -> line that set it
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
            if key in set_on:
                raise ConfigError(f"line {lineno}: {key!r} already set on line {set_on[key]}")
            set_on[key] = lineno
            ftype = _CONFIG_FIELDS[key].type
            try:
                if key == "policy":
                    value = Policy(val.lower())
                elif ftype == "int":
                    value = int(val)
                else:
                    value = float(val)
                MachineConfig(**{key: value})
            except ConfigError as e:
                raise ConfigError(f"line {lineno}: {e}") from None
            except ValueError as e:
                raise ConfigError(f"line {lineno}: bad value for {key!r}: {e}") from None
            overrides[key] = value
    return MachineConfig(**overrides)


class LayoutError(ValueError):
    pass


@dataclass(slots=True)
class LogicalSite:
    """Mutable per-logical-qubit placement state; the scheduler moves its
    own copy."""

    zone: Zone
    row: int
    col: int
    trap: Trap = SLM


@dataclass
class AtomLayout:
    config: MachineConfig
    qubits: list[LogicalSite]


@dataclass(frozen=True)
class MoveViolation:
    reason: str
    qubits: tuple[int, ...]


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
                zone=STORAGE,
                row=site // config.array_cols,
                col=site % config.array_cols,
            )
        )
    return AtomLayout(config, qubits)


def validate_move(layout: AtomLayout, displacements: dict) -> MoveViolation | None:
    """Check one simultaneous AOD move, given as qubit -> (d_row, d_col) in
    grid units of its zone; return None if it is legal.

    Every destination must lie on the grid. Atoms moved simultaneously must
    keep their relative row order and relative column order (AOD tones
    cannot cross), and no destination may collide with a parked atom or
    another mover.
    """
    movers = sorted(displacements)
    for q in movers:
        if layout.qubits[q].trap is not AOD:
            raise LayoutError(f"qubit {q} is not in an AOD trap")
    start = {q: (layout.qubits[q].row, layout.qubits[q].col) for q in movers}
    end = {
        q: (start[q][0] + displacements[q][0], start[q][1] + displacements[q][1])
        for q in movers
    }
    cfg = layout.config
    for q, (row, col) in end.items():
        if not (0 <= row < cfg.array_rows and 0 <= col < cfg.array_cols):
            return MoveViolation(f"destination {end[q]} of qubit {q} is off the grid", (q,))
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
    moving = set(movers)
    occupied = {
        (s.zone, s.row, s.col) for q, s in enumerate(layout.qubits) if q not in moving
    }
    seen = set()
    for q in movers:
        dest = (layout.qubits[q].zone, *end[q])
        if dest in occupied or dest in seen:
            return MoveViolation(f"destination {end[q]} of qubit {q} occupied", (q,))
        seen.add(dest)
    return None


# Every travel time the scheduler charges. Zone order is storage | entangling |
# readout, row 0 of each zone faces the gap to the next zone, and every zone's
# slots mirror the storage block grid, so a crossing keeps (row, col). Each
# function divides by the AOD speed once, at its end: that keeps the order of
# distances, so the slowest member's time is the longest distance's, to the bit.


def crossing_time_us(layout: AtomLayout, qubits, dest_zone: Zone) -> float:
    """The slowest of ``qubits``' travel times from their sites to
    ``dest_zone``, floored at ``min_ld_st_us`` (the floor alone for none).
    Storage and entangling cross one gap to the same (row, col), Euclidean
    over the two pitches; the storage grid is denser than the others. The
    readout zone lies straight along y past the entangling zone: one gap
    from there, two gaps plus the entangling zone's span from storage."""
    cfg = layout.config
    gap, to_readout = cfg.zone_gap_um, dest_zone is READOUT
    p_storage, p_entangling = cfg.pitch_storage_um, cfg.pitch_entangling_um
    far = cfg.array_rows * p_entangling + gap  # storage's extra way to readout
    dest_pitch = p_storage if dest_zone is STORAGE else p_entangling
    worst = gap  # the floor: min_ld_st_us is one gap's travel
    for q in qubits:
        s = layout.qubits[q]
        pitch = p_storage if s.zone is STORAGE else p_entangling
        if to_readout:
            dist = s.row * pitch + gap + (far if s.zone is STORAGE else 0.0)
        else:
            dist = math.hypot(s.col * dest_pitch - s.col * pitch,
                              s.row * pitch + gap + s.row * dest_pitch)
        if dist > worst:
            worst = dist
    return worst / cfg.aod_speed_um_per_us


def land_movers(layout: AtomLayout, pairs) -> float:
    """Move each ``(mover, partner)`` pair's mover onto the partner's site for
    the 2Q pulse; return the layer's shuttle time, the longest in-zone
    travel's, and 0.0 when no mover moves. Pairs share no qubit."""
    pitch = layout.config.pitch_entangling_um
    worst = 0.0
    for q, partner in pairs:
        s, p = layout.qubits[q], layout.qubits[partner]
        worst = max(worst, math.hypot((s.row - p.row) * pitch, (s.col - p.col) * pitch))
        s.row, s.col = p.row, p.col
    return worst / layout.config.aod_speed_um_per_us


def isolation_hop_us(config: MachineConfig) -> float:
    """Type 2's shuttle time taking a 1Q target two entangling pitches, more
    than one (12 um by default) clear of every other atom, for its pulse."""
    return 2.0 * config.pitch_entangling_um / config.aod_speed_um_per_us
