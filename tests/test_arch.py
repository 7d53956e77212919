import math

import pytest
from hypothesis import given, settings, strategies as st

from zonec.arch import (
    ConfigError,
    LayoutError,
    MachineConfig,
    MoveViolation,
    Policy,
    Trap,
    build_layout,
    crossing_time_us,
    isolation_hop_us,
    land_movers,
    load_config,
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
        path.write_text("aod_speed_um_per_us = 1.1\npolicy: type3\n# comment\nxtalk_1q = 0\n")
        cfg = load_config(path)
        assert cfg.aod_speed_um_per_us == 1.1
        assert cfg.xtalk_1q == 0.0
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

    @pytest.mark.parametrize("text, message", [
        ("pulse_2q_us = nan\n", "line 1: pulse_2q_us must be finite"),
        ("# c\narray_rows = 0\n", "line 2: array_rows must be at least 1"),
        ("pulse_1q_us = 0.5\nf_2q: 1.5\n", "line 2: f_2q must be in (0, 1]"),
        ("physical_per_logical = 1\n", "line 1: physical_per_logical must be at least 2"),
        ("xtalk_1q = 1.5\n", "line 1: xtalk_1q must be in [0, 1)"),
        ("# c\nxtalk_cz = -3\n", "line 2: xtalk_cz must be in [0, 1)"),
        ("xtalk_cz = 1\n", "line 1: xtalk_cz must be in [0, 1)"),
    ])
    def test_out_of_range_names_line(self, tmp_path, text, message):
        path = tmp_path / "machine.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == message

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
            validate_move(lay, {0: (1, 0)})

    def test_parallel_translation_ok(self):
        lay = self._layout()
        assert validate_move(lay, {0: (1, 0), 1: (1, 0)}) is None

    def test_order_violation_detected(self):
        lay = self._layout()
        a, b = lay.qubits[0], lay.qubits[1]
        # Force columns to cross.
        delta = b.col - a.col
        v = validate_move(lay, {0: (0, delta + 1), 1: (0, 0)})
        assert isinstance(v, MoveViolation) and v.qubits == (0, 1)

    def test_occupied_destination_detected(self):
        lay = self._layout()
        a, b = lay.qubits[0], lay.qubits[1]
        v = validate_move(lay, {0: (b.row - a.row, b.col - a.col)})
        assert isinstance(v, MoveViolation) and v.qubits == (0,)

    @pytest.mark.parametrize(
        "displacements, mover",
        [({0: (-3, 0)}, 0), ({3: (0, 100)}, 3), ({0: (50, -1), 1: (50, -1)}, 0)],
        ids=["row-3", "col101", "row50"],
    )
    def test_off_grid_destination_detected(self, displacements, mover):
        v = validate_move(self._layout(), displacements)
        assert isinstance(v, MoveViolation) and v.qubits == (mover,)
        assert "off the grid" in v.reason

    def test_move_to_grid_edge_ok(self):
        # The last row and column are on the grid: the bound is exclusive.
        lay = self._layout(1)
        cfg, s = lay.config, lay.qubits[0]
        move = {0: (cfg.array_rows - 1 - s.row, cfg.array_cols - 1 - s.col)}
        assert validate_move(lay, move) is None

    def test_violation_is_truthy(self):
        # A plain record: callers test `if validate_move(...)` for a fault.
        lay = self._layout()
        v = validate_move(lay, {0: (-1, 0)})
        assert v and v == MoveViolation(v.reason, (0,))


_SITES = st.lists(st.tuples(st.sampled_from([Zone.STORAGE, Zone.ENTANGLING]),
                            st.integers(0, 40), st.integers(0, 40)), min_size=1, max_size=6)


def _placed(sites):
    """A default-machine layout with each qubit at its ``(zone, row, col)``."""
    lay = build_layout(MachineConfig(), len(sites))
    for s, (zone, row, col) in zip(lay.qubits, sites):
        s.zone, s.row, s.col = zone, row, col
    return lay


class TestTravelTimeProperties:
    @given(_SITES, st.sampled_from(list(Zone)), st.data())
    @settings(max_examples=200, deadline=None)
    def test_crossing_is_its_slowest_member_floored(self, sites, dest, data):
        # No qubit (an empty draw) gives the floor alone.
        lay = _placed(sites)
        qs = data.draw(st.lists(st.integers(0, len(sites) - 1), unique=True))
        t = crossing_time_us(lay, qs, dest)
        assert t >= lay.config.min_ld_st_us
        assert t == max([crossing_time_us(lay, (q,), dest) for q in qs],
                        default=lay.config.min_ld_st_us)

    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40), st.booleans(),
                              st.integers(0, 40), st.integers(0, 40)), max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_landing_is_free_exactly_when_no_mover_moves(self, pairs):
        # Pair i is mover 2i at its own site (or on its partner's, if the
        # flag is set) and partner 2i + 1.
        sites = []
        for prow, pcol, on_partner, mrow, mcol in pairs:
            mover = (prow, pcol) if on_partner else (mrow, mcol)
            sites += [(Zone.ENTANGLING, *mover), (Zone.ENTANGLING, prow, pcol)]
        lay = _placed(sites or [(Zone.ENTANGLING, 0, 0)])
        home = [(s.row, s.col) for s in lay.qubits]
        t = land_movers(lay, [(2 * i, 2 * i + 1) for i in range(len(pairs))])
        assert (t == 0.0) == all(home[2 * i] == home[2 * i + 1] for i in range(len(pairs)))


class TestDistances:
    """Closed forms at the default geometry: 6 um storage pitch, 12 um
    entangling pitch, a 20 um zone gap and 41 rows per zone, travelled at
    0.55 um/us."""

    @staticmethod
    def _at(zone, row, col=0):
        lay = build_layout(MachineConfig(), 2)
        s = lay.qubits[0]
        s.zone, s.row, s.col = zone, row, col
        return lay

    @pytest.mark.parametrize("row", [0, 1, 7, 40])
    def test_readout_trip(self, row):
        from_storage = crossing_time_us(self._at(Zone.STORAGE, row), (0,), Zone.READOUT)
        assert from_storage == (6 * row + 20 + 41 * 12 + 20) / 0.55
        near = crossing_time_us(self._at(Zone.ENTANGLING, row), (0,), Zone.READOUT)
        assert near == (12 * row + 20) / 0.55

    @pytest.mark.parametrize("row, col", [(0, 0), (3, 0), (2, 5), (40, 40)])
    def test_crossing_keeps_row_and_column(self, row, col):
        # Storage (row, col) to entangling (row, col): the x offset is the
        # pitch difference, the y span both rows plus the gap.
        up = crossing_time_us(self._at(Zone.STORAGE, row, col), (0,), Zone.ENTANGLING)
        down = crossing_time_us(self._at(Zone.ENTANGLING, row, col), (0,), Zone.STORAGE)
        assert up == down == math.hypot(6 * col, 18 * row + 20) / 0.55

    def _pair(self):
        """Qubit 0 at entangling (1, 2), qubit 1 at entangling (4, 6): a
        3-4-5 triangle of 12 um edges apart."""
        lay = self._at(Zone.ENTANGLING, 1, 2)
        p = lay.qubits[1]
        p.zone, p.row, p.col = Zone.ENTANGLING, 4, 6
        return lay

    @pytest.mark.parametrize("mover, partner", [(0, 1), (1, 0)])
    def test_mover_lands_on_partner(self, mover, partner):
        lay = self._pair()
        stays = (lay.qubits[partner].row, lay.qubits[partner].col)
        assert land_movers(lay, [(mover, partner)]) == 60 / 0.55
        m, p = lay.qubits[mover], lay.qubits[partner]
        assert (m.row, m.col) == (p.row, p.col) == stays
        assert m.zone is p.zone is Zone.ENTANGLING
        assert land_movers(lay, [(mover, partner)]) == 0.0  # already there

    def test_layer_travel_is_its_longest(self):
        lay = build_layout(MachineConfig(), 4)
        for q, (row, col) in enumerate([(0, 0), (0, 1), (5, 5), (8, 9)]):
            s = lay.qubits[q]
            s.zone, s.row, s.col = Zone.ENTANGLING, row, col
        assert land_movers(lay, [(0, 1), (3, 2)]) == 60 / 0.55  # 12 um against 60 um
        assert [(s.row, s.col) for s in lay.qubits] == [(0, 1), (0, 1), (5, 5), (5, 5)]
        assert land_movers(lay, []) == 0.0

    def test_isolation_hop(self):
        assert isolation_hop_us(MachineConfig()) == 24 / 0.55
        assert isolation_hop_us(MachineConfig(pitch_entangling_um=15.0)) == 30 / 0.55
        assert isolation_hop_us(MachineConfig(aod_speed_um_per_us=2.0)) == 12.0
