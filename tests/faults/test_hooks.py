"""Hook firing: unarmed fast path, hit counting, arming discipline."""

from __future__ import annotations

import pytest

from repro.errors import CamConfigError
from repro.faults import Fault, FaultPlan, arm, armed, fire


def _plan(*faults, seed=0):
    return FaultPlan.of(*faults, seed=seed)


class TestUnarmed:
    def test_fire_is_a_noop(self):
        assert not armed()
        # No plan armed: any point, any context, nothing happens.
        fire("service.stream.dispatch")
        fire("refstore.save", buf=bytearray(8), path="/nope")

    def test_armed_flag_tracks_extent(self):
        plan = _plan()
        assert not armed()
        with arm(plan):
            assert armed()
        assert not armed()

    def test_disarmed_after_exception(self):
        fault = Fault("poisoned_read", "service.stream.dispatch", 0)
        with pytest.raises(CamConfigError, match="injected"):
            with arm(_plan(fault)):
                fire("service.stream.dispatch")
        assert not armed()


class TestFiring:
    def test_fault_fires_on_its_hit_only(self):
        fault = Fault("poisoned_read", "service.stream.dispatch", 2)
        with arm(_plan(fault)) as injector:
            fire("service.stream.dispatch")          # hit 0
            fire("service.stream.dispatch")          # hit 1
            assert injector.fired == []
            with pytest.raises(CamConfigError):
                fire("service.stream.dispatch")      # hit 2 -> boom
            fire("service.stream.dispatch")          # hit 3: spent
        assert injector.fired == [fault]
        assert injector.hit_counts() == {
            "service.stream.dispatch": 4,
        }

    def test_points_count_independently(self):
        fault = Fault("poisoned_read", "service.stream.dispatch", 1)
        with arm(_plan(fault)) as injector:
            fire("refstore.open")
            fire("refstore.open")
            fire("service.stream.dispatch")          # hit 0: quiet
            with pytest.raises(CamConfigError, match="injected"):
                fire("service.stream.dispatch")      # hit 1
        assert injector.fired == [fault]

    def test_unscheduled_point_never_fires(self):
        fault = Fault("slow_batch", "service.stream.dispatch", 0,
                      arg=0)
        with arm(_plan(fault)) as injector:
            for _ in range(3):
                fire("refstore.open")
        assert injector.fired == []

    def test_fired_log_preserves_order(self):
        early = Fault("slow_batch", "service.stream.dispatch", 0)
        late = Fault("store_truncate", "refstore.save", 1)
        with arm(_plan(early, late)) as injector:
            fire("refstore.save")
            fire("service.stream.dispatch")
            fire("refstore.save")                    # no buffer: no-op
        assert injector.fired == [early, late]


class TestArmDiscipline:
    def test_non_reentrant(self):
        with arm(_plan()):
            with pytest.raises(CamConfigError, match="already armed"):
                with arm(_plan()):
                    pass  # pragma: no cover
        assert not armed()

    def test_rearm_after_exit(self):
        with arm(_plan()):
            pass
        with arm(_plan()) as injector:
            fire("service.stream.dispatch")
        assert injector.hit_counts() == {"service.stream.dispatch": 1}


class TestBufferActions:
    def _sealed(self, payload: bytes):
        """A minimal sealed container around *payload* (one array)."""
        import numpy as np

        from repro.refstore.header import (
            plan_layout,
            seal_header,
            write_payload,
        )

        arrays = [("data", np.frombuffer(payload, dtype=np.uint8))]
        layout = plan_layout(arrays)
        buf = bytearray(layout.total)
        write_payload(buf, layout, arrays)
        seal_header(buf, layout, magic=b"TESTMAG1", version=1)
        return buf, layout

    def test_crc_flip_flips_payload_byte(self):
        payload = bytes(range(64))
        buf, layout = self._sealed(payload)
        fault = Fault("store_crc_flip", "refstore.save", 0, arg=130)
        with arm(_plan(fault)):
            fire("refstore.save", buf=buf, path=None)
        start = layout.payload_start
        corrupted = bytes(buf[start:start + len(payload)])
        assert corrupted != payload
        # Exactly one byte differs, at arg % payload_length.
        diffs = [i for i, (a, b) in enumerate(zip(payload, corrupted, strict=True))
                 if a != b]
        assert diffs == [130 % layout.payload_length]

    def test_truncate_halves_payload(self):
        buf, _ = self._sealed(bytes(64))
        before = len(buf)
        fault = Fault("store_truncate", "refstore.save", 0)
        with arm(_plan(fault)):
            fire("refstore.save", buf=buf, path=None)
        assert len(buf) < before

    def test_poisoned_open_flips_file_byte(self, tmp_path):
        path = tmp_path / "ref.bin"
        path.write_bytes(bytes(32))
        fault = Fault("poisoned_open", "refstore.catalog.open", 0)
        with arm(_plan(fault)):
            fire("refstore.catalog.open", name="x", path=str(path))
        data = path.read_bytes()
        assert len(data) == 32
        assert data[-1] == 0x01  # last byte XOR 0x01

    def test_missing_context_is_ignored(self):
        # A fault whose context is absent (no buf, no path) degrades
        # to a no-op rather than crashing the hook site.
        for fault in (
            Fault("store_crc_flip", "refstore.save", 0),
            Fault("store_truncate", "refstore.save", 0),
            Fault("poisoned_open", "refstore.catalog.open", 0),
        ):
            with arm(_plan(fault)) as injector:
                fire(fault.point)
            assert injector.fired == [fault]
