"""Mobility model: bounded random-walk velocity traces and exact integrals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import locsim.mobility as mobility
from locsim.errors import ConfigError
from locsim.mobility import (
    MAX_DURATION_S,
    MobilityParams,
    MotionTrace,
    generate_trace,
    positions_at,
    times_at_positions,
)

from _traces import assert_trace_invariants, hand_trace


class TestMobilityParams:
    def test_rejects_invalid_values(self):
        good = dict(duration_s=10, t1_s=3, v_min=1.0, v_max=10.0, v0=5.0, seed=1)
        for bad in (
            dict(duration_s=-1),
            dict(duration_s=MAX_DURATION_S + 1),
            dict(t1_s=0),
            dict(t1_s=MAX_DURATION_S + 1),
            dict(t1_s=2**63),
            dict(v_min=0.5),
            dict(v_max=0.5),
            dict(v0=0.0),
            dict(v0=11.0),
            dict(seed=-1),
            dict(seed=2**64),
            dict(duration_s=True),
            dict(t1_s=True),
            dict(seed=True),
            dict(seed=False),
        ):
            with pytest.raises(ConfigError):
                MobilityParams(**{**good, **bad})

    def test_longest_period_holds_velocity_constant(self):
        params = MobilityParams(duration_s=50, t1_s=MAX_DURATION_S, v0=4.0)
        assert np.all(generate_trace(params).velocities == 4.0)

    def test_zero_duration_is_allowed(self):
        params = MobilityParams(duration_s=0, t1_s=1, v0=2.0)
        trace = generate_trace(params)
        assert list(trace.velocities) == [2.0]
        assert trace.velocities[0] == 2.0
        assert positions_at(trace, np.array([0.0])).tolist() == [0.0]


@st.composite
def bands(draw):
    """(v_min, v_max, v0) on tenths of a m/s, as in the engine-equivalence
    tests: bands narrower than one step, and levels that drift by rounding."""
    v_min = draw(st.integers(10, 50)) / 10
    v_max = v_min + draw(st.sampled_from([0.0, 0.5, 1.0, 1.2]) | st.integers(0, 90).map(lambda k: k / 10))
    return v_min, v_max, draw(st.sampled_from([v_min, v_max]) | st.floats(v_min, v_max))


def steps_from(params):
    """(velocity before, acceleration) at every acceleration event of the trace."""
    v = generate_trace(params).velocities
    at = np.arange(params.t1_s, len(v), params.t1_s)
    return v[at - 1], v[at] - v[at - 1]


class TestNextAcceleration:
    """The acceleration drawn at each event, read off generated traces."""

    def test_interior_velocity_draws_from_full_set(self):
        params = MobilityParams(duration_s=600, t1_s=1, v0=5.0, seed=0)
        before, accel = steps_from(params)
        interior = (before >= 2.0) & (before <= 9.0)
        assert interior.sum() >= 100
        assert set(accel[interior].tolist()) == {-1.0, 0.0, 1.0}

    def test_at_v_min_never_decreases(self):
        params = MobilityParams(duration_s=600, t1_s=1, v_min=1.0, v_max=3.0, v0=1.0, seed=1)
        before, accel = steps_from(params)
        assert (before == 1.0).sum() >= 50
        assert set(accel[before == 1.0].tolist()) == {0.0, 1.0}

    def test_at_v_max_never_increases(self):
        params = MobilityParams(duration_s=600, t1_s=1, v_min=8.0, v_max=10.0, v0=10.0, seed=2)
        before, accel = steps_from(params)
        assert (before == 10.0).sum() >= 50
        assert set(accel[before == 10.0].tolist()) == {-1.0, 0.0}

    def test_single_width_band_pins_acceleration_to_zero(self):
        for v_max in (1.0, 1.5):
            params = MobilityParams(duration_s=50, t1_s=1, v_min=1.0, v_max=v_max, v0=1.0, seed=3)
            assert np.all(generate_trace(params).velocities == 1.0)

    def test_boundary_draws_bulk_zero_violations(self):
        # Narrow band keeps every draw at a boundary; >= 1e4 events total.
        params = MobilityParams(duration_s=20002, t1_s=1, v_min=1.0, v_max=2.0, v0=1.0)
        trace = generate_trace(params)
        assert trace.velocities.min() >= 1.0
        assert trace.velocities.max() <= 2.0


class TestGenerateTrace:
    def test_constant_when_t1_exceeds_duration(self):
        params = MobilityParams(duration_s=50, t1_s=60, v0=5.0)
        trace = generate_trace(params)
        assert np.all(trace.velocities == 5.0)

    def test_seeded_replay_frozen(self):
        # One draw per event at t=3,6,9; PCG64(42) gives stay, +1, stay.
        params = MobilityParams(duration_s=12, t1_s=3, v0=1.0, seed=42)
        trace = generate_trace(params)
        assert list(trace.velocities) == [1.0] * 6 + [2.0] * 6

    def test_first_entry_is_v0(self):
        for seed in range(5):
            params = MobilityParams(duration_s=30, t1_s=1, v0=7.0, seed=seed)
            assert generate_trace(params).velocities[0] == 7.0

    def test_deterministic_for_equal_params(self):
        params = MobilityParams(duration_s=500, t1_s=3, seed=99)
        a = generate_trace(params)
        b = generate_trace(params)
        assert np.array_equal(a.velocities, b.velocities)

    def test_changes_only_at_acceleration_times(self):
        for seed in range(4):
            params = MobilityParams(duration_s=400, t1_s=7, seed=seed)
            v = generate_trace(params).velocities
            changed = np.nonzero(np.diff(v))[0] + 1
            assert np.all(changed % 7 == 0), f"seed {seed}: change off the t1 grid"

    @given(
        duration=st.integers(min_value=0, max_value=200),
        t1=st.integers(min_value=1, max_value=9),
        band=bands(),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_invariants_hold(self, duration, t1, band, seed):
        v_min, v_max, v0 = band
        params = MobilityParams(duration, t1, v_min, v_max, v0, seed)
        assert_trace_invariants(generate_trace(params))

    def test_a_trace_that_stops_early_draws_one_chunk_at_most(self, monkeypatch):
        # The walk reaches 2.3 within a few events, where 2.3 - 1 < 1.3 and
        # 3.3 > 2.5, and holds it: drawing a value per event would take
        # 999,999 values for this trace.
        codes, drawn = mobility._codes, []

        def spy(rng, size):
            drawn.append(size)
            return codes(rng, size)

        monkeypatch.setattr(mobility, "_codes", spy)
        trace = generate_trace(MobilityParams(1_000_000, 1, 1.3, 2.5, 1.3, 0))
        assert trace.velocities[-1] == 2.3
        assert 0 < sum(drawn) <= mobility._CHUNK

    def test_split_draws_read_the_values_of_one_draw(self):
        # The walk draws its 32-bit values in chunks and stays identical to
        # one bulk draw only because PCG64 keeps the spare half of an odd
        # draw for the next call.
        for seed in range(5):
            for a, b in ((1, 1), (1, 6), (3, 4), (4095, 2), (4097, 9)):
                rng = np.random.default_rng(seed)
                split = [rng.integers(0, 2**32, dtype=np.uint32, size=n).tolist() for n in (a, b)]
                whole = np.random.default_rng(seed).integers(0, 2**32, dtype=np.uint32, size=a + b)
                assert split[0] + split[1] == whole.tolist()


class TestMotionTraceValidation:
    """``MotionTrace`` checks nothing; the suite's invariant check flags
    each bad hand-made trace."""

    def test_rejects_out_of_band_velocity(self):
        for velocities in ([1.0, 11.0], [5.0, float("nan")]):
            with pytest.raises(AssertionError, match=r"outside \[v_min, v_max\]"):
                hand_trace(velocities)

    def test_rejects_large_step(self):
        with pytest.raises(AssertionError, match="step above 1 m/s"):
            hand_trace([2.0, 4.0])

    def test_rejects_change_off_grid(self):
        with pytest.raises(AssertionError, match="off the t1_s grid"):
            hand_trace([2.0, 2.0, 3.0, 3.0], t1_s=3)

    def test_rejects_wrong_length(self):
        trace = MotionTrace(MobilityParams(duration_s=5, t1_s=1, v0=2.0), np.array([2.0, 2.0]))
        with pytest.raises(AssertionError, match="must hold 5 velocities"):
            assert_trace_invariants(trace)


class TestPositionAt:
    def test_zero_at_zero(self):
        trace = hand_trace([3.0] * 10)
        assert positions_at(trace, np.array([0.0])).tolist() == [0.0]

    def test_constant_velocity(self):
        trace = hand_trace([3.0] * 12)
        assert positions_at(trace, np.array([10.0])).tolist() == [30.0]

    def test_piecewise_profile(self):
        trace = hand_trace([2.0, 2.0, 2.0, 3.0, 3.0], t1_s=3)
        at_5, at_4_5 = positions_at(trace, np.array([5.0, 4.5]))
        assert at_5 == 12.0
        assert at_4_5 == pytest.approx(10.5, abs=1e-12)

    def test_matches_dense_riemann_sum(self):
        params = MobilityParams(duration_s=60, t1_s=2, v0=5.0, seed=7)
        trace = generate_trace(params)
        # Left Riemann sum over exact 1 ms cells (cell i covers [i, i+1) ms).
        dt = 0.001
        cells = np.arange(60_000)
        cell_v = trace.velocities[cells // 1000]
        riemann = np.concatenate(([0.0], np.cumsum(cell_v) * dt))
        ts = np.array([0.25, 1.0, 7.5, 33.333, 59.999, 60.0])
        ks = np.rint(ts / dt).astype(np.int64)
        assert np.allclose(positions_at(trace, ts), riemann[ks], rtol=0, atol=1e-6)

    def test_additive_over_subintervals(self):
        params = MobilityParams(duration_s=100, t1_s=3, v0=2.0, seed=11)
        trace = generate_trace(params)
        t1, t2, t3 = 12.25, 40.5, 97.125
        p1, p2, p3 = positions_at(trace, np.array([t1, t2, t3]))
        left = p2 - p1
        right = p3 - p2
        total = p3 - p1
        assert left + right == pytest.approx(total, abs=1e-9)

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25)
    def test_monotone_nondecreasing(self, seed):
        params = MobilityParams(duration_s=50, t1_s=4, v0=3.0, seed=seed)
        trace = generate_trace(params)
        ts = np.linspace(0, 50, 301)
        pos = positions_at(trace, ts)
        assert np.all(np.diff(pos) >= 0)


class TestTimesAtPositions:
    def test_inverts_position(self):
        params = MobilityParams(duration_s=80, t1_s=3, v0=4.0, seed=3)
        trace = generate_trace(params)
        ts = np.array([0.0, 1.5, 10.0, 42.42, 79.999])
        pos = positions_at(trace, ts)
        back = times_at_positions(trace, pos)
        assert np.allclose(back, ts, atol=1e-9)

    def test_beyond_total_distance_caps_at_duration(self):
        trace = hand_trace([2.0] * 10)
        assert times_at_positions(trace, np.array([1000.0]))[0] == 10.0
