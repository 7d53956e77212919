"""Parameterized machine model: zones, atom-grid geometry and every distance
the scheduler charges, trap assignment, and AOD movement constraints.

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
    their defaults, and a key may be set once. A line that does not parse,
    or whose value does not convert, raises a ``ConfigError`` naming the
    line; ``MachineConfig`` then checks each value's range."""
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
                    overrides[key] = Policy(val.lower())
                elif ftype == "int":
                    overrides[key] = int(val)
                else:
                    overrides[key] = float(val)
            except ValueError as e:
                raise ConfigError(f"line {lineno}: bad value for {key!r}: {e}") from None
    return MachineConfig(**overrides)


class LayoutError(ValueError):
    pass


@dataclass
class LogicalSite:
    """Mutable per-logical-qubit placement state; the scheduler moves its
    own copy."""

    zone: Zone
    row: int
    col: int
    trap: Trap = Trap.SLM


@dataclass
class AtomLayout:
    config: MachineConfig
    qubits: list[LogicalSite]


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
        if layout.qubits[q].trap is not Trap.AOD:
            raise LayoutError(f"qubit {q} is not in an AOD trap")
    start = {q: (layout.qubits[q].row, layout.qubits[q].col) for q in movers}
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
    return True


def move_duration_us(layout: AtomLayout, move: AodMove, config: MachineConfig) -> float:
    """Straight-line travel time: max over movers of path length / AOD speed."""
    worst = 0.0
    for q, (dr, dc) in move.displacements.items():
        pitch = config.pitch_um(layout.qubits[q].zone)
        worst = max(worst, math.hypot(dr * pitch, dc * pitch))
    return worst / config.aod_speed_um_per_us


def apply_move(layout: AtomLayout, move: AodMove) -> None:
    for q, (dr, dc) in move.displacements.items():
        s = layout.qubits[q]
        s.row += dr
        s.col += dc


def plan_swap_in_entangling(
    layout: AtomLayout, a: int, b: int
) -> list[tuple[AodMove, float]]:
    """Exchange two entangling-zone block positions in at most three AOD legs
    through a vacant waypoint row; zero loads/stores."""
    if a == b:
        return []
    sa, sb = layout.qubits[a], layout.qubits[b]
    for q, s in ((a, sa), (b, sb)):
        if s.zone is not Zone.ENTANGLING:
            raise LayoutError(f"qubit {q} is not in the entangling zone")
        s.trap = Trap.AOD
    waypoint_row = max(s.row for s in layout.qubits if s.zone is Zone.ENTANGLING) + 1
    if waypoint_row >= layout.config.array_rows:
        raise LayoutError("no vacant waypoint row; SLM handoff required")
    plan: list[tuple[AodMove, float]] = []
    orig_a, orig_b = (sa.row, sa.col), (sb.row, sb.col)
    moves = [
        AodMove({a: (waypoint_row - orig_a[0], 0)}),
        AodMove({b: (orig_a[0] - orig_b[0], orig_a[1] - orig_b[1])}),
        AodMove({a: (orig_b[0] - waypoint_row, orig_b[1] - orig_a[1])}),
    ]
    for mv in moves:
        ok = validate_move(layout, mv)
        if ok is not True:
            raise LayoutError(f"swap leg invalid: {ok.reason}")
        dur = move_duration_us(layout, mv, layout.config)
        apply_move(layout, mv)
        plan.append((mv, dur))
    return plan


# Every distance the scheduler charges. Zone order is storage | entangling |
# readout, and row 0 of each zone faces the gap to the next zone.


def crossing_distance_um(layout: AtomLayout, q: int, dest_zone: Zone) -> float:
    """Travel of q from its site to ``dest_zone``. Storage and entangling
    cross one gap to the same (row, col), Euclidean over the two pitches.
    The readout zone lies straight along y past the entangling zone: one gap
    from there, two gaps plus the entangling zone's span from storage."""
    cfg = layout.config
    s = layout.qubits[q]
    pitch = cfg.pitch_um(s.zone)
    x0, y0 = s.col * pitch, s.row * pitch
    if dest_zone is Zone.READOUT:
        dist = y0 + cfg.zone_gap_um
        if s.zone is Zone.STORAGE:
            dist += cfg.array_rows * cfg.pitch_entangling_um + cfg.zone_gap_um
        return dist
    dest_pitch = cfg.pitch_um(dest_zone)
    return math.hypot(s.col * dest_pitch - x0, y0 + cfg.zone_gap_um + s.row * dest_pitch)


def shuttle_distance_um(layout: AtomLayout, q: int, partner: int) -> float:
    """In-zone travel of q onto its gate partner's entangling-zone site."""
    pitch = layout.config.pitch_entangling_um
    s, p = layout.qubits[q], layout.qubits[partner]
    return math.hypot((s.row - p.row) * pitch, (s.col - p.col) * pitch)


def isolation_hop_um(config: MachineConfig) -> float:
    """Type 2's shuttle that takes a 1Q target more than one entangling
    pitch clear of every other atom before its local pulse."""
    return 2.0 * config.pitch_entangling_um
