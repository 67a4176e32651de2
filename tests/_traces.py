"""The trace invariants, and one checked builder for hand-made traces.

:class:`locsim.mobility.MotionTrace` re-checks nothing that
:func:`locsim.mobility.generate_trace` built, so the suite checks it here:
tests assert :func:`assert_trace_invariants` on generated traces, and every
trace a test makes by hand comes from :func:`hand_trace`, which asserts it.
"""

import numpy as np

from locsim.mobility import MobilityParams, MotionTrace

# Velocities are v0 + k for integer k, so a step of +-1 m/s between seconds
# can differ from 1 by float rounding; allow this much slack.
STEP_SLACK = 2e-6


def assert_trace_invariants(trace: MotionTrace) -> None:
    """One velocity per second, inside [v_min, v_max], steps of at most
    1 m/s, and changes only on the ``t1_s`` grid."""
    v, p = trace.velocities, trace.params
    expected = max(1, p.duration_s)
    assert v.ndim == 1 and len(v) == expected, f"trace must hold {expected} velocities, got {v.shape}"
    # Written so that a NaN, which fails every comparison, fails it too.
    assert np.all((v >= p.v_min) & (v <= p.v_max)), "velocity outside [v_min, v_max]"
    steps = np.diff(v)
    assert np.all(np.abs(steps) <= 1.0 + STEP_SLACK), "velocity step above 1 m/s"
    assert np.all((np.nonzero(steps)[0] + 1) % p.t1_s == 0), "velocity change off the t1_s grid"


def hand_trace(velocities, t1_s=1, v_min=1.0, v_max=10.0) -> MotionTrace:
    """A trace of ``velocities``, one per second, checked against the
    invariants that :func:`locsim.mobility.generate_trace` keeps."""
    velocities = np.array(velocities, dtype=float)
    params = MobilityParams(
        duration_s=len(velocities),
        t1_s=t1_s,
        v_min=v_min,
        v_max=v_max,
        v0=float(velocities[0]),
        seed=0,
    )
    trace = MotionTrace(params, velocities)
    assert_trace_invariants(trace)
    return trace
