import math

import pytest
from hypothesis import given, settings, strategies as st

from zonec.arch import (
    AodMove,
    ConfigError,
    LayoutError,
    MachineConfig,
    MoveViolation,
    Policy,
    Trap,
    apply_move,
    build_layout,
    crossing_distance_um,
    isolation_hop_um,
    load_config,
    move_duration_us,
    shuttle_distance_um,
    validate_move,
)
from zonec.ir import Zone


class TestConfig:
    def test_defaults(self):
        cfg = MachineConfig()
        assert cfg.pulse_1q_us == 0.625
        assert cfg.pulse_2q_us == 0.380
        assert cfg.trap_transfer_time_us == 150.0
        assert cfg.max_logical == 120

    def test_derived_times(self):
        cfg = MachineConfig()
        assert cfg.min_ld_st_us == pytest.approx(20.0 / 0.55)

    def test_validation(self):
        with pytest.raises(ConfigError):
            MachineConfig(pulse_1q_us=-1.0)
        with pytest.raises(ConfigError):
            MachineConfig(f_2q=1.5)

    @pytest.mark.parametrize("name", [
        "pulse_1q_us", "pulse_2q_us", "trap_transfer_time_us", "zone_gap_um",
        "coherence_out_s", "f_1q", "xtalk_1q", "xtalk_cz",
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            MachineConfig(**{name: value})

    @pytest.mark.parametrize("kw", [
        {"array_rows": 0}, {"array_cols": 0}, {"array_cols": -3},
        {"physical_per_logical": 1}, {"physical_per_logical": 0},
    ])
    def test_bad_grid_rejected(self, kw):
        with pytest.raises(ConfigError, match=next(iter(kw))):
            MachineConfig(**kw)

    def test_smallest_valid_grid(self):
        cfg = MachineConfig(array_rows=1, array_cols=2, physical_per_logical=2)
        assert cfg.max_logical == 1

    def test_config_file_round_trip(self, tmp_path):
        cfg = MachineConfig(pulse_2q_us=0.5, policy=Policy.TYPE2, array_rows=21)
        path = tmp_path / "machine.cfg"
        path.write_text("pulse_2q_us = 0.5\npolicy = type2\narray_rows: 21\n")
        assert load_config(path) == cfg

    def test_config_file_partial_override(self, tmp_path):
        path = tmp_path / "machine.cfg"
        path.write_text("aod_speed_um_per_us = 1.1\npolicy: type3\n# comment\n")
        cfg = load_config(path)
        assert cfg.aod_speed_um_per_us == 1.1
        assert cfg.policy is Policy.TYPE3
        assert cfg.pulse_1q_us == 0.625

    @pytest.mark.parametrize("text", [
        "pulse_2q_us = 0.4\n# c\npulse_2q_us = 0.9\n",
        "pulse_2q_us = 0.4\n\npulse_2q_us: 0.4\n",
    ])
    def test_repeated_key_names_both_lines(self, tmp_path, text):
        path = tmp_path / "machine.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match=r"^line 3: 'pulse_2q_us' already set on line 1$"):
            load_config(path)

    @pytest.mark.parametrize("text, key", [
        ("array_rows = 2.0\n", "array_rows"),
        ("policy = foo\n", "policy"),
        ("# c\n\npulse_1q_us = fast\n", "pulse_1q_us"),
    ])
    def test_bad_value_names_line_and_key(self, tmp_path, text, key):
        path = tmp_path / "machine.cfg"
        path.write_text(text)
        line = text.count("\n")
        with pytest.raises(ConfigError, match=rf"^line {line}: bad value for '{key}'"):
            load_config(path)

    def test_removed_x_basis_allowed_rejected(self, tmp_path):
        path = tmp_path / "machine.cfg"
        path.write_text("x_basis_allowed = true\n")
        with pytest.raises(ConfigError, match="x_basis_allowed"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "machine.cfg"
        path.write_text("warp_speed = 9\n")
        with pytest.raises(ConfigError):
            load_config(path)


class TestLayout:
    def test_capacity_limit(self):
        cfg = MachineConfig()
        build_layout(cfg, 120)
        with pytest.raises(LayoutError):
            build_layout(cfg, 121)

    def test_deterministic_and_disjoint(self):
        cfg = MachineConfig()
        lay = build_layout(cfg, 50)
        assert lay.qubits == build_layout(cfg, 50).qubits
        anchors = {(s.row, s.col) for s in lay.qubits}
        assert len(anchors) == 50

    def test_all_start_in_storage_slm(self):
        lay = build_layout(MachineConfig(), 10)
        assert all(s.zone is Zone.STORAGE and s.trap is Trap.SLM for s in lay.qubits)


class TestMoves:
    def _layout(self, n=4):
        lay = build_layout(MachineConfig(), n)
        for s in lay.qubits:
            s.trap = Trap.AOD
        return lay

    def test_requires_aod(self):
        lay = build_layout(MachineConfig(), 2)
        with pytest.raises(LayoutError):
            validate_move(lay, AodMove({0: (1, 0)}))

    def test_parallel_translation_ok(self):
        lay = self._layout()
        mv = AodMove({0: (1, 0), 1: (1, 0)})
        assert validate_move(lay, mv) is True

    def test_order_violation_detected(self):
        lay = self._layout()
        a, b = lay.qubits[0], lay.qubits[1]
        # Force columns to cross.
        delta = b.col - a.col
        mv = AodMove({0: (0, delta + 1), 1: (0, 0)})
        v = validate_move(lay, mv)
        assert isinstance(v, MoveViolation) and not v

    def test_occupied_destination_detected(self):
        lay = self._layout()
        a, b = lay.qubits[0], lay.qubits[1]
        mv = AodMove({0: (b.row - a.row, b.col - a.col)})
        v = validate_move(lay, mv)
        assert isinstance(v, MoveViolation)

    def test_duration_uses_slowest_member(self):
        lay = self._layout()
        cfg = lay.config
        mv = AodMove({0: (0, 1), 1: (0, 3)})
        expected = 3 * cfg.pitch_storage_um / cfg.aod_speed_um_per_us
        assert move_duration_us(lay, mv, cfg) == pytest.approx(expected)

    def test_apply_move_updates_positions(self):
        lay = self._layout()
        s = lay.qubits[0]
        before = (s.row, s.col)
        apply_move(lay, AodMove({0: (2, 1)}))
        assert (s.row, s.col) == (before[0] + 2, before[1] + 1)

    @given(st.integers(0, 6), st.integers(0, 6))
    @settings(max_examples=30, deadline=None)
    def test_crossing_distance_at_least_gap(self, r, c):
        lay = build_layout(MachineConfig(), 4)
        lay.qubits[0].row, lay.qubits[0].col = r, c
        d = crossing_distance_um(lay, 0, Zone.ENTANGLING)
        assert d >= lay.config.zone_gap_um


class TestDistances:
    """Closed forms at the default geometry: 6 um storage pitch, 12 um
    entangling pitch, a 20 um zone gap and 41 rows per zone."""

    @staticmethod
    def _at(zone, row, col=0):
        lay = build_layout(MachineConfig(), 2)
        s = lay.qubits[0]
        s.zone, s.row, s.col = zone, row, col
        return lay

    @pytest.mark.parametrize("row", [0, 1, 7, 40])
    def test_readout_trip(self, row):
        up = crossing_distance_um(self._at(Zone.STORAGE, row), 0, Zone.READOUT)
        assert up == 6 * row + 20 + 41 * 12 + 20
        assert crossing_distance_um(self._at(Zone.ENTANGLING, row), 0, Zone.READOUT) == 12 * row + 20

    @pytest.mark.parametrize("row, col", [(0, 0), (3, 0), (2, 5), (40, 40)])
    def test_crossing_keeps_row_and_column(self, row, col):
        # Storage (row, col) to entangling (row, col): the x offset is the
        # pitch difference, the y span both rows plus the gap.
        up = crossing_distance_um(self._at(Zone.STORAGE, row, col), 0, Zone.ENTANGLING)
        down = crossing_distance_um(self._at(Zone.ENTANGLING, row, col), 0, Zone.STORAGE)
        assert up == down == math.hypot(6 * col, 18 * row + 20)

    def test_shuttle_onto_partner(self):
        lay = self._at(Zone.ENTANGLING, 1, 2)
        p = lay.qubits[1]
        p.zone, p.row, p.col = Zone.ENTANGLING, 4, 6
        assert shuttle_distance_um(lay, 0, 1) == 60.0  # a 3-4-5 triangle of 12 um edges
        assert shuttle_distance_um(lay, 1, 0) == 60.0
        assert shuttle_distance_um(lay, 0, 0) == 0.0

    def test_isolation_hop(self):
        assert isolation_hop_um(MachineConfig()) == 24.0
        assert isolation_hop_um(MachineConfig(pitch_entangling_um=15.0)) == 30.0
