"""End-to-end acceptance checks.

One test per numbered acceptance item. Each prints a PASS line with the
measured values when it succeeds (visible under pytest -s or -rA); the
assertions carry the stated tolerances, which are zero where the expected
values are exact.
"""

import math
import random
import time

import numpy as np
import pytest

from locsim.cli import FIGURE_BETAS, main
from locsim.config import DEFAULT_SCHEDULE_TEXT
from locsim.mobility import MobilityParams, generate_trace
from locsim.simulator import (
    EVENT_FIX,
    EVENT_SAMPLE,
    SimulationConfig,
    parse_schedule,
    run,
    sweep,
)
from locsim.strategy import DEFAULT_METHODS, StrategyConfig, on_velocity_sample, select_method

from _events import events
from _oracles import brute_force_select, grid_satisfaction, random_instance

# A per-epoch cost estimate with velocity pinned at the mobility midpoint
# (5.5 m/s) puts the adaptive/gps energy ratio near 0.77: the tightest
# requirement span (50 m) admits no method cheaper than gps, and at 80 m
# wifi beats gps only narrowly (545 / 30 = 18.2 against 1425 / 70 = 20.4 mJ
# per metre of room), so the ratio cannot approach the ~0.1 that the
# relaxed spans alone would suggest. 0.85 leaves margin for ensemble noise;
# item 5 first re-derives the estimate and checks it stays under this bound
# before holding the simulated means to it.
ENERGY_RATIO_BOUND = 0.85

ENSEMBLE_ALPHAS = (0.3, 0.5)
ENSEMBLE_SEEDS = tuple(range(1, 31))
ENSEMBLE_KINDS = ("adaptive", "fixed:gps")


def _pass(item: int, detail: str) -> None:
    print(f"[acceptance {item:02d}] PASS {detail}")


def default_base_config() -> SimulationConfig:
    params = MobilityParams(duration_s=3600, t1_s=3, v_min=1.0, v_max=10.0, v0=1.0, seed=1)
    return SimulationConfig(
        params,
        StrategyConfig(alpha=0.5, beta=1.0),
        parse_schedule(DEFAULT_SCHEDULE_TEXT),
        "adaptive",
    )


@pytest.fixture(scope="module")
def ensemble():
    """Full comparison sweep shared by items 4, 5 and 6, with its wall time."""
    base = default_base_config()
    t0 = time.perf_counter()
    rows = sweep(
        base,
        list(ENSEMBLE_ALPHAS),
        list(FIGURE_BETAS),
        list(ENSEMBLE_SEEDS),
        list(ENSEMBLE_KINDS),
    )
    elapsed = time.perf_counter() - t0
    return rows, elapsed


def mean_energy(rows, kind, beta, alpha=None):
    sel = [
        r.total_energy_mJ
        for r in rows
        if r.kind == kind and r.beta == beta and (alpha is None or r.alpha == alpha)
    ]
    return sum(sel) / len(sel)


def mean_satisfaction(rows, kind, beta):
    sel = [r.satisfaction for r in rows if r.kind == kind and r.beta == beta]
    return sum(sel) / len(sel)


def test_01_constant_velocity_closed_form(make_constant_config):
    adaptive_cfg = make_constant_config()
    gps_cfg = make_constant_config(kind="fixed:gps")
    run(adaptive_cfg)  # warm-up so the timed pass measures steady-state cost
    t0 = time.perf_counter()
    adaptive = run(adaptive_cfg)
    gps = run(gps_cfg)
    elapsed = time.perf_counter() - t0
    assert adaptive.fix_count == 52
    assert adaptive.total_energy_mJ == 1040.0
    assert adaptive.satisfaction == 1.0
    assert gps.fix_count == 37
    assert gps.total_energy_mJ == 52725.0
    assert elapsed < 0.010
    _pass(1, f"52 fixes / 1040 mJ / 1.0 vs gps 37 / 52725 mJ in {elapsed * 1000:.2f} ms")


def test_02_distance_estimate_worked_example():
    # Previous estimate 2 m/s, new sample 16 m/s, 4 s interval; the motion
    # actually covered 30 m, which the three estimates bracket.
    cases = {0.5: 36.0, 0.3: 24.8, 0.1: 13.6}
    for alpha, expected in cases.items():
        estimate = on_velocity_sample(2.0, 16.0, alpha) * 4.0
        assert estimate == pytest.approx(expected, abs=1e-9)
    assert cases[0.1] < 30.0 < cases[0.5]
    _pass(2, "distance estimates 36.0 / 24.8 / 13.6 within 1e-9")


def test_03_method_selection_matches_exhaustive_search():
    rng = random.Random(41)
    n = 10_000
    t0 = time.perf_counter()
    agreements = 0
    for i in range(n):
        methods, a_t, v_e = random_instance(rng)
        expected = brute_force_select(methods, a_t, v_e)
        assert select_method(methods, a_t, v_e) is expected, f"instance {i}"
        agreements += 1
    elapsed = time.perf_counter() - t0
    assert agreements == n
    assert elapsed < 1.0
    _pass(3, f"{n} randomized instances agree with exhaustive search in {elapsed:.3f} s")


def test_04_energy_falls_with_coarser_sampling(ensemble):
    rows, elapsed = ensemble
    assert elapsed < 5.0
    for kind in ENSEMBLE_KINDS:
        for alpha in ENSEMBLE_ALPHAS:
            coarse = mean_energy(rows, kind, 1.0, alpha)
            fine = mean_energy(rows, kind, 0.1, alpha)
            assert coarse <= fine, f"{kind} alpha={alpha}: {coarse} > {fine}"
    _pass(4, f"beta=1.0 mean energy <= beta=0.1 for both strategies; sweep {elapsed:.2f} s")


def test_05_adaptive_beats_gps_on_energy(ensemble):
    # First re-derive the bound from a per-epoch cost estimate, independent
    # of the simulator, then hold every simulated beta to it.
    v_bar = 5.5
    schedule = parse_schedule(DEFAULT_SCHEDULE_TEXT)
    spans = list(schedule.entries) + [(3600.0, None)]
    gps = next(m for m in DEFAULT_METHODS if m.name == "gps")
    est_adaptive = 0.0
    est_gps = 0.0
    for (start, a_t), (end, _) in zip(spans, spans[1:]):
        span_s = end - start
        eligible = [m for m in DEFAULT_METHODS if m.accuracy_m < a_t]
        best = min(eligible, key=lambda m: m.energy_mJ * v_bar / (a_t - m.accuracy_m))
        est_adaptive += best.energy_mJ * span_s * v_bar / (a_t - best.accuracy_m)
        est_gps += gps.energy_mJ * span_s * v_bar / (a_t - gps.accuracy_m)
    est_ratio = est_adaptive / est_gps
    assert est_ratio < ENERGY_RATIO_BOUND

    rows, _ = ensemble
    ratios = {}
    for beta in FIGURE_BETAS:
        ratio = mean_energy(rows, "adaptive", beta) / mean_energy(rows, "fixed:gps", beta)
        assert ratio < ENERGY_RATIO_BOUND, f"beta={beta}: ratio {ratio:.4f}"
        ratios[beta] = ratio
    worst = max(ratios.values())
    _pass(5, f"estimate {est_ratio:.3f}, simulated ratios <= {worst:.3f}, bound {ENERGY_RATIO_BOUND}")


def test_06_adaptive_matches_gps_on_satisfaction(ensemble):
    """At each beta, adaptive's mean satisfaction over both alphas' runs is
    at least gps's. The means pool the alphas: at alpha 0.5 alone, beta 0.2,
    adaptive's 0.899027 is below gps's 0.903496, while the pooled means
    are 0.893402 against 0.892688."""
    rows, _ = ensemble
    margins = []
    for beta in FIGURE_BETAS:
        ours = mean_satisfaction(rows, "adaptive", beta)
        gps = mean_satisfaction(rows, "fixed:gps", beta)
        assert ours >= gps, f"beta={beta}: {ours:.4f} < {gps:.4f}"
        margins.append(ours - gps)
    _pass(6, f"adaptive >= gps at all betas; smallest margin {min(margins):.4f}")


def test_07_satisfaction_agrees_with_grid_brute_force():
    rng = random.Random(20260825)
    worst = 0.0
    for i in range(20):
        duration = rng.randint(120, 400)
        n_changes = rng.randint(1, 3)
        starts = sorted(rng.sample(range(20, duration - 20), n_changes))
        text = "0:500" + "".join(f",{s}:{rng.choice([200, 300, 800])}" for s in starts)
        sched = parse_schedule(text)
        params = MobilityParams(
            duration_s=duration,
            t1_s=rng.randint(1, 5),
            v0=float(rng.randint(1, 10)),
            seed=rng.randrange(2**32),
        )
        cfg = SimulationConfig(
            params,
            StrategyConfig(
                alpha=rng.choice([0.1, 0.3, 0.5, 0.9, 1.0]),
                beta=rng.choice([0.1, 0.2, 0.5, 1.0]),
            ),
            sched,
            rng.choice(["adaptive", "fixed:gps"]),
        )
        result = run(cfg)
        approx = grid_satisfaction(events(result), generate_trace(params), sched)
        err = abs(result.satisfaction - approx)
        worst = max(worst, err)
        assert err < 1e-4, f"config {i}: |{result.satisfaction} - {approx}| = {err}"
    _pass(7, f"20 randomized configs; worst grid deviation {worst:.2e} < 1e-4")


def test_08_mobility_invariants_at_scale():
    checked = 0
    for seed in range(1, 11):
        params = MobilityParams(duration_s=100_000, t1_s=3, v0=1.0, seed=seed)
        trace = generate_trace(params)
        v = trace.velocities
        assert v[0] == 1.0
        assert float(v.min()) >= 1.0 and float(v.max()) <= 10.0
        steps = np.diff(v)
        assert set(np.unique(steps)) <= {-1.0, 0.0, 1.0}
        change_at = np.flatnonzero(steps != 0.0) + 1
        assert np.all(change_at % 3 == 0)
        checked += len(v)
    _pass(8, f"{checked} velocity seconds across 10 seeds, zero violations")


def test_09_byte_identical_outputs(tmp_path, capsys):
    outputs = []
    for label in ("a", "b"):
        events_path = tmp_path / f"events_{label}.csv"
        assert main(["simulate", "--seed", "5", "--out", str(events_path)]) == 0
        outputs.append((capsys.readouterr().out, events_path.read_bytes()))
    assert outputs[0] == outputs[1]

    sweeps = []
    for label in ("a", "b"):
        out = tmp_path / f"sweep_{label}.csv"
        code = main(
            ["sweep", "--duration", "600", "--alphas", "0.3,0.5", "--betas", "0.5,1.0",
             "--seeds", "1..3", "--kinds", "adaptive,fixed:gps", "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        sweeps.append(out.read_bytes())
    assert sweeps[0] == sweeps[1]
    _pass(9, "summary, event and sweep CSVs byte-identical across invocations")


def test_10_requirement_changes_force_fixes():
    expected = {600.0, 1200.0, 1800.0, 2400.0, 3000.0}
    base = default_base_config()
    for seed in (1, 7, 123):
        for kind in ENSEMBLE_KINDS:
            params = MobilityParams(
                duration_s=3600, t1_s=3, v_min=1.0, v_max=10.0, v0=1.0, seed=seed
            )
            cfg = SimulationConfig(params, base.strategy_cfg, base.schedule, kind)
            fix_times = {e.time_s for e in events(run(cfg)) if e.kind == EVENT_FIX}
            assert expected <= fix_times, f"seed={seed} kind={kind}"
    _pass(10, "fix events at exactly t=600,1200,1800,2400,3000 in all 6 runs")


def test_11_sampling_rate_does_not_change_energy(make_constant_config):
    betas = (0.1, 0.5, 1.0)
    for v in (4.0, 5.0, 9.0):
        results = {beta: run(make_constant_config(v=v, beta=beta)) for beta in betas}
        energies = {r.total_energy_mJ for r in results.values()}
        assert len(energies) == 1, f"v={v}: energies differ {energies}"
        for beta, result in results.items():
            expected = math.ceil(1.0 / beta)
            fixes = [e.time_s for e in events(result) if e.kind == EVENT_FIX]
            samples = [e.time_s for e in events(result) if e.kind == EVENT_SAMPLE]
            for lo, hi in zip(fixes, fixes[1:]):
                count = sum(1 for s in samples if lo < s <= hi)
                assert count == expected, f"v={v} beta={beta} epoch ({lo},{hi}]"
    _pass(11, "constant-velocity energy independent of beta; ceil(1/beta) samples per epoch")
