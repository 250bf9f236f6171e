import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import expon, kstest

from hawkes_rkhs.events import read_events_csv, write_events_csv
from hawkes_rkhs.simulation import (
    CURVE_POINTS,
    IdentityLink,
    ScenarioSpec,
    SoftplusLink,
    TriggerKernel,
    cosine_gated_decay,
    exp_decay,
    gaussian_bump,
    mutually_exciting_scenario,
    pow_two_decay,
    read_curves_csv,
    refractory_pulse,
    refractory_scenario,
    simulate,
    true_curves,
    write_curves_csv,
    zero_kernel,
)
from oracles import simulate_loop


def poisson_spec(rate=1.0):
    return ScenarioSpec(U=1, mu=(rate,), kernels=((zero_kernel(),),),
                        link=IdentityLink(), A=5.0)


# --- scenario definitions -------------------------------------------------------

def test_mutually_exciting_kernel_values():
    spec = mutually_exciting_scenario()
    assert spec.U == 3 and spec.A == 5.0
    assert_allclose(spec.mu, 0.01)
    assert spec.kernels[0][0].fn(0.0) == pytest.approx(0.5)
    assert spec.kernels[0][1].fn(1.0) == pytest.approx(0.5)   # bump peak
    assert spec.kernels[1][0].fn(0.0) == pytest.approx(0.5)   # 2^(-1)
    assert spec.kernels[1][1].fn(0.0) == pytest.approx(0.3)
    assert spec.kernels[2][1].fn(1.0) == pytest.approx(0.0, abs=1e-15)
    assert spec.kernels[2][1].fn(0.0) == pytest.approx(0.5)
    assert isinstance(spec.link, IdentityLink)


def test_refractory_kernel_values():
    spec = refractory_scenario()
    assert spec.kernels[0][0].fn(0.0) == pytest.approx(-1.0)
    assert spec.kernels[0][0].fn(0.5) == pytest.approx(1.0)
    assert spec.kernels[0][0].fn(0.5 + 1e-9) == pytest.approx(1.0, rel=1e-6)
    assert spec.kernels[1][1].fn(1.5) == pytest.approx(np.exp(-1.0))
    assert_allclose(spec.kernels[2][0].fn(np.linspace(0, 5, 11)), 0.0)
    assert_allclose(spec.kernels[2][1].fn(np.linspace(0, 5, 11)), 0.0)
    assert isinstance(spec.link, SoftplusLink) and spec.link.w == 100.0


def test_identity_link_rejects_negative_kernels():
    with pytest.raises(ValueError, match="nonnegative"):
        ScenarioSpec(U=1, mu=(0.1,), kernels=((refractory_pulse(1.0),),),
                     link=IdentityLink(), A=5.0)


def test_softplus_validation():
    with pytest.raises(ValueError):
        SoftplusLink(0.0)
    link = SoftplusLink(100.0)
    assert link(0.0) == pytest.approx(np.log(2) / 100)
    assert link(1.0) == pytest.approx(1.0, rel=1e-6)
    assert link(-1.0) >= 0.0


def test_envelopes_dominate_and_decrease():
    for spec in (mutually_exciting_scenario(), refractory_scenario()):
        s = np.linspace(0.0, spec.support_lag, 4001)
        for row in spec.kernels:
            for k in row:
                env = np.asarray(k.envelope(s), dtype=float)
                assert env.min() >= 0.0
                assert np.all(np.diff(env) <= 1e-12), k.label
                # envelope dominates the running remaining maximum of g
                g = np.asarray(k.fn(s), dtype=float)
                suffix_max = np.maximum.accumulate(g[::-1])[::-1]
                assert np.all(env >= suffix_max - 1e-12), k.label


def test_builtin_kernels_are_elementwise():
    # the simulator evaluates lag 0 once per draw and reuses that column, so a
    # value must not depend on the call's shape: a scalar, a one-lag array and
    # any position of a longer array give the same bits
    lags = np.random.default_rng(0).uniform(0.0, 6.0, 37)
    for spec in (mutually_exciting_scenario(), refractory_scenario()):
        for k in sum(spec.kernels, ()):
            for s in (0.0, 0.5, 1.0, 2.5):
                one = k.values(np.array([s]))
                at = [k.values(np.insert(lags, pos, s)) for pos in (0, 20, lags.size)]
                for part, scalar in enumerate(k.values(s)):
                    assert np.shape(scalar) == ()
                    assert np.asarray(scalar).tobytes() == one[part].tobytes(), (k.label, s)
                    assert [v[part][pos] for v, pos in zip(at, (0, 20, lags.size))] == \
                        [one[part][0]] * 3, (k.label, s)


@pytest.mark.parametrize("U, mu, kernels, support_lag, message", [
    (2, (0.1,), ((zero_kernel(),) * 2,) * 2, None, "mu and kernels must have U entries"),
    (2, (0.1, 0.1), ((zero_kernel(),) * 2,), None, "mu and kernels must have U entries"),
    (2, (0.1, 0.1), ((zero_kernel(),) * 2, (zero_kernel(),)), None,
     "kernels must be a U x U grid"),
    (1, (0.1,), ((zero_kernel(),),), 4.0, "support_lag must be at least A"),
    # a NaN baseline never lets a draw return, and an infinite one piles its events at 0
    (2, (0.1, np.nan), ((zero_kernel(),) * 2,) * 2, None, "baseline mu must be finite, got nan"),
    (1, (np.inf,), ((zero_kernel(),),), None, "baseline mu must be finite, got inf"),
    # the summed bound goes below 0, so the draw would stop at once with no event
    (2, (-0.5, 0.3), ((zero_kernel(),) * 2,) * 2, None,
     "the identity link needs a nonnegative baseline, got -0.5")])
def test_scenario_spec_rejects_bad_shapes(U, mu, kernels, support_lag, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ScenarioSpec(U=U, mu=mu, kernels=kernels, link=IdentityLink(), A=5.0,
                     support_lag=support_lag)


def test_softplus_scenario_accepts_a_negative_baseline():
    spec = ScenarioSpec(U=2, mu=(-0.5, 0.3), kernels=((zero_kernel(),) * 2,) * 2,
                        link=SoftplusLink(100.0), A=5.0)
    assert spec.mu == (-0.5, 0.3)
    with pytest.raises(ValueError, match="^baseline mu must be finite, got nan$"):
        refractory_scenario(np.nan)


def test_unbounded_envelope_rejected():
    def inv(s):
        with np.errstate(divide="ignore"):
            return 1.0 / np.asarray(s, dtype=float)

    bad = TriggerKernel(lambda s: (inv(s), inv(s)), "1/s")
    with pytest.raises(ValueError, match="unbounded"):
        ScenarioSpec(U=1, mu=(0.1,), kernels=((bad,),), link=IdentityLink(), A=5.0)


# --- simulator ------------------------------------------------------------------

def test_simulation_reproducible():
    spec = mutually_exciting_scenario()
    a = simulate(spec, 150.0, 7)
    b = simulate(spec, 150.0, 7)
    assert np.array_equal(a.events.times, b.events.times)
    assert np.array_equal(a.events.marks, b.events.marks)
    c = simulate(spec, 150.0, 8)
    assert not np.array_equal(a.events.times, c.events.times)


def test_simulate_stops_at_a_negative_identity_intensity():
    # ScenarioSpec rejects a negative kernel under the identity link, so one is
    # swapped in after validation: its envelope still bounds it, and the first
    # proposal within lag 1/(2 sqrt 2) of an event sees 0.5 + (8 s^2 - 1) < 0
    spec = ScenarioSpec(U=1, mu=(0.5,), kernels=((exp_decay(0.5, 1.0),),),
                        link=IdentityLink(), A=5.0)
    object.__setattr__(spec, "kernels", ((refractory_pulse(1.0),),))
    with pytest.raises(RuntimeError, match=r"^negative intensity -\S+ at t=\S+ under the "
                                           r"identity link$"):
        simulate(spec, 200.0, 1)


def test_simulation_rejects_bad_horizon():
    # max_events bounds the draw should an infinite horizon be accepted
    for T in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            simulate(poisson_spec(), T, 1, max_events=10)


def test_accepted_intensities_positive():
    for spec in (mutually_exciting_scenario(), refractory_scenario()):
        res = simulate(spec, 120.0, 3)
        assert len(res.events) > 0
        assert res.intensities.min() > 0.0
        assert res.n_proposals >= len(res.events)


def test_runaway_process_aborts():
    spec = ScenarioSpec(U=1, mu=(1.0,), kernels=((exp_decay(2.0, 1.0),),),
                        link=IdentityLink(), A=5.0, support_lag=20.0)
    with pytest.raises(RuntimeError, match="supercritical|max_events|aborted"):
        simulate(spec, 400.0, 1, max_events=500)


def dense_poisson_spec():
    # ~500 live events in one mark: more than one initial history buffer
    return ScenarioSpec(U=1, mu=(100.0,), kernels=((zero_kernel(),),),
                        link=IdentityLink(), A=5.0, support_lag=5.0)


def truncated_spec():
    # kernels far from zero at support_lag, so the history cut shows in every bit
    kernels = ((exp_decay(0.1, 0.2), exp_decay(0.1, 0.5)),
               (exp_decay(0.1, 0.3), zero_kernel()))
    return ScenarioSpec(U=2, mu=(0.5, 0.3), kernels=kernels,
                        link=IdentityLink(), A=5.0, support_lag=5.0)


def raw_callable_spec():
    # custom kernels, one (g, envelope) callable each with the envelope strictly
    # above g, next to a built-in kernel and a zero kernel in the same mark
    def lags(s):
        return np.asarray(s, dtype=float)

    wobble = TriggerKernel(
        lambda s: (0.3 * np.exp(-lags(s)) * (1.0 + 0.5 * np.sin(3.0 * lags(s))),
                   0.5 * np.exp(-lags(s))), "wobble")
    rise = TriggerKernel(lambda s: (0.2 * lags(s) * np.exp(-lags(s)),
                                    np.full_like(lags(s), 0.1)), "rise")
    kernels = ((wobble, rise), (exp_decay(0.2, 2.0), zero_kernel()))
    return ScenarioSpec(U=2, mu=(0.3, 0.2), kernels=kernels,
                        link=IdentityLink(), A=5.0, support_lag=10.0)


def sparse_spec():
    # a low rate and a short support, so every mark's history empties and
    # refills between events
    kernels = ((exp_decay(0.4, 2.0), gaussian_bump(0.3, 0.5, 8.0)),
               (cosine_gated_decay(0.2), pow_two_decay(0.3, 3.0)))
    return ScenarioSpec(U=2, mu=(0.05, 0.08), kernels=kernels,
                        link=IdentityLink(), A=1.5, support_lag=1.5)


@pytest.mark.parametrize("make_spec, T, seed", [
    (refractory_scenario, 2000.0, 175),
    (refractory_scenario, 300.0, 1),
    (refractory_scenario, 300.0, 2),
    (mutually_exciting_scenario, 2000.0, 20),
    (mutually_exciting_scenario, 400.0, 3),
    (poisson_spec, 200.0, 4),
    (dense_poisson_spec, 20.0, 5),
    (truncated_spec, 200.0, 6),
    (raw_callable_spec, 300.0, 7),
    (sparse_spec, 2000.0, 8),
])
def test_simulate_matches_reference_loop(make_spec, T, seed):
    # draws are a fixed function of (spec, T, seed): the per-mark history
    # arrays and the envelope sums kept from one proposal for the next bound
    # must reproduce the single-list scan with two passes to the last bit
    spec = make_spec()
    got, ref = simulate(spec, T, seed), simulate_loop(spec, T, seed)
    assert np.array_equal(got.events.times, ref.events.times)
    assert np.array_equal(got.events.marks, ref.events.marks)
    assert np.array_equal(got.intensities, ref.intensities)
    assert got.n_proposals == ref.n_proposals
    if make_spec is dense_poisson_spec:
        times = got.events.times
        live = np.arange(times.size) - np.searchsorted(times, times - spec.support_lag)
        # live histories longer than a small fixed-size buffer would hold
        assert live.max() > 256
    if make_spec is sparse_spec:
        gaps = np.diff(got.events.times)
        assert (gaps > spec.support_lag).sum() > 10 and (gaps < spec.support_lag).sum() > 10


@pytest.mark.parametrize("make_spec, T, seed", [
    (mutually_exciting_scenario, 400.0, 3),
    (refractory_scenario, 300.0, 1),
    (sparse_spec, 2000.0, 8),
])
def test_simulate_calls_each_kernel_once_per_proposal(monkeypatch, make_spec, T, seed):
    # a live kernel's values run once per draw at lag 0 and once per proposal
    # before T that finds its source mark's history nonempty; an acceptance
    # sums its lag-0 column onto that proposal's values and calls no kernel
    spec = make_spec()
    calls = {}

    def counting(key, values):
        calls[key] = []

        def wrapped(s):
            calls[key].append(np.array(s, dtype=float))
            return values(s)
        return wrapped

    kernels = tuple(tuple(k if k == zero_kernel() else TriggerKernel(counting((i, j), k.values))
                          for j, k in enumerate(row)) for i, row in enumerate(spec.kernels))
    counted = ScenarioSpec(U=spec.U, mu=spec.mu, kernels=kernels, link=spec.link,
                           A=spec.A, support_lag=spec.support_lag)
    for seen in calls.values():
        seen.clear()  # ScenarioSpec's own check on a lag grid
    gaps, default_rng = [], np.random.default_rng

    class Recording:  # the draws of default_rng, keeping each proposal's gap
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def exponential(self, scale):
            gaps.append(self.rng.exponential(scale))
            return gaps[-1]

        def random(self):
            return self.rng.random()

    monkeypatch.setattr(np.random, "default_rng", Recording)
    got = simulate(counted, T, seed)
    monkeypatch.undo()
    ref = simulate_loop(spec, T, seed)
    assert np.array_equal(got.events.times, ref.events.times)
    assert np.array_equal(got.events.marks, ref.events.marks)
    assert np.array_equal(got.intensities, ref.intensities)
    assert got.n_proposals == ref.n_proposals == len(gaps)

    t, proposals = 0.0, []
    for gap in gaps:  # summed as the simulator sums them
        t += gap
        proposals.append(t)
    assert proposals[-1] >= T > proposals[-2]
    times, marks = got.events.times, got.events.marks
    for (i, j), seen in calls.items():
        history = times[marks == j + 1]
        busy = sum(bool(np.any((history < p) & (p - history <= spec.support_lag)))
                   for p in proposals[:-1])
        assert len(seen) == busy + 1, (i, j)
        assert [s.tolist() for s in seen if np.any(s == 0.0)] == [[0.0]], (i, j)


def _digest(a, dtype):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=dtype).tobytes()).hexdigest()


@pytest.mark.parametrize("make_spec, seed, times, marks, intensities, n_proposals", [
    (refractory_scenario, 175,
     "10654ec8b72dee6c030340d0c00683402ec33c647ff3090e06460afbf64dc56f",
     "f461b7c028c7cb9c2d30d9d5412d2b7e1aa5e66b0324451415e1bb95280e5e8b",
     "33a7c55bfcf1086b8bae55a0ebc285a5a09261646b92d220cb0c5ea9c2c05447", 4012),
    (mutually_exciting_scenario, 20,
     "8e3c0f047b1c1060869ee90f5f4f1149dd6989d3ab7a976f91316a17de5fa2c7",
     "1a8099157a070ff90106dbb1f361ee4f26d436be228ecdef0cf5dbaefabd46e6",
     "a66985dcf4f0ee7b7d4795341fe624fc40974963985a791c8875bccc519f1874", 2880),
], ids=["refractory-175", "mutually-exciting-20"])
def test_simulate_draws_pinned(make_spec, seed, times, marks, intensities, n_proposals):
    # the T=2000 draws the benchmark tables start from, pinned to their bits
    # (float64 and int64, little-endian), so a kernel formula that drifts in
    # the simulator and in the reference loop alike still shows
    res = simulate(make_spec(), 2000.0, seed)
    assert _digest(res.events.times, "<f8") == times
    assert _digest(res.events.marks, "<i8") == marks
    assert _digest(res.intensities, "<f8") == intensities
    assert res.n_proposals == n_proposals


def test_runaway_abort_matches_reference_loop():
    spec = ScenarioSpec(U=1, mu=(1.0,), kernels=((exp_decay(2.0, 1.0),),),
                        link=IdentityLink(), A=5.0, support_lag=20.0)
    with pytest.raises(RuntimeError) as ref:
        simulate_loop(spec, 400.0, 1, max_events=500)
    with pytest.raises(RuntimeError) as got:
        simulate(spec, 400.0, 1, max_events=500)
    assert str(got.value) == str(ref.value)


def test_homogeneous_poisson_statistics():
    rate, T, n_seeds = 1.0, 50.0, 200
    counts = []
    gaps = []
    spec = poisson_spec(rate)
    for seed in range(n_seeds):
        ev = simulate(spec, T, seed).events
        counts.append(len(ev))
        # keep a fixed leading block of gaps per window: unlike the full gap
        # list they carry no horizon-truncation bias
        if len(ev) >= 25:
            gaps.append(np.diff(np.concatenate([[0.0], ev.times]))[:25])
    mean_count = np.mean(counts)
    assert abs(mean_count - rate * T) <= 4.0 * np.sqrt(rate * T)
    pooled = np.concatenate(gaps)
    stat = kstest(pooled, expon(scale=1.0 / rate).cdf).statistic
    critical_1pct = 1.6276 / np.sqrt(pooled.size)
    assert stat < critical_1pct


def test_subcritical_rate_matches_branching_theory():
    # 1-dim kernel 0.5 exp(-s): branching ratio 0.5, stationary rate mu / 0.5
    mu = 0.5
    spec = ScenarioSpec(U=1, mu=(mu,), kernels=((exp_decay(0.5, 1.0),),),
                        link=IdentityLink(), A=5.0, support_lag=30.0)
    T = 4000.0
    counts = [len(simulate(spec, T, seed).events) for seed in (1, 2, 3)]
    rate = np.mean(counts) / T
    assert abs(rate - mu / 0.5) / (mu / 0.5) < 0.05


def test_mutually_exciting_count_smoke():
    # generous band around the measured mean at a short horizon
    counts = [len(simulate(mutually_exciting_scenario(), 300.0, s).events)
              for s in range(40, 46)]
    assert 40 <= np.mean(counts) <= 600


# --- curve and event files -------------------------------------------------------

def test_events_csv_round_trip(tmp_path):
    # the reader gives back, bit for bit, the arrays the writer wrote
    res = simulate(mutually_exciting_scenario(), 80.0, 5)
    path = tmp_path / "events.csv"
    write_events_csv(path, res.events, {"scenario": "mutually-exciting", "seed": 5})
    clone, meta = read_events_csv(path)
    for got, want in ((clone.times, res.events.times), (clone.marks, res.events.marks)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert clone.T == res.events.T and clone.U == res.events.U
    assert meta["scenario"] == "mutually-exciting"


def test_events_csv_reads_an_integral_mark_written_as_a_float(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("# T=10\ntime,mark\n0.5,1.0\n2.5,2\n")
    events, _ = read_events_csv(path)
    assert events.marks.dtype == np.dtype(int) and events.marks.tolist() == [1, 2]
    assert events.U == 2


# each way an events file can be refused, with the whole message: a row that
# is not two numbers, or an event that breaks a rule of EventSequence, names
# its line
EVENTS_CSV_ERRORS = {
    "infinite-time": ("# T=10\n# U=2\ntime,mark\n1.0,1\ninf,2\n",
                      "line 5: event time inf is not finite"),
    "fractional-mark": ("# T=10\n# U=2\ntime,mark\n1.0,1\n2.0,1.5\n",
                        "line 5: mark 1.5 is not an integer"),
    "negative-time": ("# T=10\n# U=2\ntime,mark\n-1.0,1\n2.0,1\n",
                      "line 4: negative event time -1.0"),
    "duplicate-time": ("# T=10\n# U=2\ntime,mark\n1.0,1\n1.0,2\n",
                       "line 5: duplicate event time 1.0"),
    "decreasing-time": ("# T=10\n# U=2\ntime,mark\n2.0,1\n1.0,2\n",
                        "line 5: event times must be strictly increasing"),
    # the first event at or past the horizon, not the last
    "time-past-horizon": ("# T=3\n# U=2\ntime,mark\n1.0,1\n4.0,2\n5.0,2\n",
                          "line 5: event time 4.0 is at or past the horizon T=3.0"),
    "mark-above-dimension": ("# T=10\n# U=2\ntime,mark\n1.0,1\n2.0,3\n",
                             "line 5: mark 3 outside 1..2"),
    "zero-mark": ("# T=10\n# U=2\ntime,mark\n1.0,0\n", "line 4: mark 0 outside 1..2"),
    # without '# U=' the dimension count is the largest finite mark
    "nan-mark-without-dimension": ("# T=10\ntime,mark\n1.0,2\n2.0,nan\n",
                                   "line 4: mark nan is not an integer"),
    "infinite-mark-without-dimension": ("# T=10\ntime,mark\n1.0,2\n2.0,inf\n",
                                        "line 4: mark inf outside 1..2"),
    "text-mark": ("# T=10\n# U=2\ntime,mark\n1.0,oops\n",
                  "line 4: could not convert string to float: 'oops'"),
    "short-row": ("# T=10\n# U=2\ntime,mark\n1.0,1\n2.0\n",
                  "line 5: expected 2 values, got 1"),
    # the header is checked before the rows it would misread
    "three-field-header": ("# T=10\ntime,mark,x\n1.0,1\n",
                           "line 2: expected header 'time,mark', got 'time,mark,x'"),
    "no-horizon": ("time,mark\n1.0,1\n",
                   "no horizon: pass one explicitly or add a '# T=...' comment"),
}


@pytest.mark.parametrize("case", sorted(EVENTS_CSV_ERRORS))
def test_events_csv_errors(tmp_path, case):
    text, message = EVENTS_CSV_ERRORS[case]
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        read_events_csv(path)
    assert str(err.value) == f"{path}: {message}"


def test_curves_csv_round_trip(tmp_path):
    # the reader gives back, bit for bit, the grid and curves the writer wrote
    spec = mutually_exciting_scenario()
    path = tmp_path / "curves.csv"
    write_curves_csv(path, spec)
    s, curves, U = read_curves_csv(path)
    assert U == 3 and s.size == CURVE_POINTS
    want_s = np.linspace(0.0, spec.A, CURVE_POINTS)
    want = true_curves(spec, want_s)
    assert s.tobytes() == want_s.tobytes()
    assert curves.shape == want.shape and curves.tobytes() == want.tobytes()


def test_curves_csv_rejects_a_grid_that_does_not_increase(tmp_path):
    # Simpson's rule on such a grid gives a wrong, even negative, delta^2
    path = tmp_path / "curves.csv"
    write_curves_csv(path, mutually_exciting_scenario())
    lines = path.read_text().splitlines()
    # the interior reversed: lag 0 stays on line 4 (lines[3]) and lag A last
    lines[4:-1] = lines[-2:3:-1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^{path}: non-increasing lag at line 6$"):
        read_curves_csv(path)
    lines = path.read_text().splitlines()
    lines[4:-1] = lines[-2:3:-1]  # increasing again, then one lag repeated
    lines[9] = lines[8]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^{path}: non-increasing lag at line 10$"):
        read_curves_csv(path)


def test_true_curves_shape():
    spec = refractory_scenario()
    s = np.linspace(0, 5, 17)
    curves = true_curves(spec, s)
    assert curves.shape == (3, 3, 17)
    assert_allclose(curves[2, 0], 0.0)
