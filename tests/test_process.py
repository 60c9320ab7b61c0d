import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import arcert.process as process_module
from arcert import (
    ArProcess,
    CampaignConfig,
    ConvergenceError,
    CovarianceCertificate,
    DeviationCertificate,
    RateAnalysis,
    StabilityError,
    StationaryStatistics,
    Trajectory,
    ar_recursion,
    build_companion,
    characteristic_roots,
    simulate_batch,
    simulate_stationary,
    substream,
)
from arcert._floattext import _repr_lines, _shortest
from arcert.linalg import solve_companion_lyapunov
from arcert.process import MAX_ORDER, check_schur_stable
from reference import OraclePath, lag_window, simulate_whole_horizon

CHUNK = process_module.CHUNK
CSV_BLOCK = process_module._CSV_BLOCK

#: N + n at the edges of one, two, four and eight chunks: the first chunks,
#: and later ones whose carried rows have been moved up several times.
CHUNK_EDGES = [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3,
               4 * CHUNK - 1, 4 * CHUNK, 4 * CHUNK + 1, 8 * CHUNK + 3]

#: Seed counts around the edges of the 32-trial draw blocks.
DRAW_BLOCK_EDGES = [31, 32, 33, 65]

#: Stable high-order processes (l1 norm of the coefficients below 1).
AR6_COEFFS = [0.3, -0.2, 0.15, 0.1, -0.1, 0.05]
AR8_COEFFS = [0.2, -0.15, 0.1, 0.1, -0.1, 0.08, 0.05, -0.05]


class TestSchurCheck:
    def test_single_stable_root(self):
        assert check_schur_stable([0.5])

    def test_unit_root(self):
        assert not check_schur_stable([1.0])

    def test_second_order_roots_inside_circle(self):
        # Oracle: eigensolver on the characteristic polynomial.
        roots = np.sort(np.roots([1.0, -0.3, -0.4]))
        np.testing.assert_allclose(roots, [-0.5, 0.8], atol=1e-12)
        assert check_schur_stable([0.3, 0.4])

    def test_margin_rejects_near_unit_roots(self):
        assert not check_schur_stable([1.0 - 1e-12])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            check_schur_stable([np.inf])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            check_schur_stable([])

    def test_roots_match_oracle(self):
        ours = np.sort_complex(characteristic_roots([0.3, 0.4]))
        oracle = np.sort_complex(np.roots([1.0, -0.3, -0.4]))
        np.testing.assert_allclose(ours, oracle, atol=1e-12)


class TestArProcess:
    def test_validation(self):
        with pytest.raises(ValueError):
            ArProcess(coeffs=[0.5], noise_variance=0.0)
        with pytest.raises(ValueError):
            ArProcess(coeffs=[0.5], noise_variance=-1.0)
        with pytest.raises(StabilityError):
            ArProcess(coeffs=[1.2])
        # Shape and finiteness come from characteristic_roots.
        with pytest.raises(ValueError, match="non-empty 1-D"):
            ArProcess(coeffs=[])
        with pytest.raises(ValueError, match="non-empty 1-D"):
            ArProcess(coeffs=[[0.5]])
        with pytest.raises(ValueError, match="finite"):
            ArProcess(coeffs=[np.nan])

    def test_order_capped(self):
        # The Lyapunov operator grows as (n+1)^4; a larger order is a named
        # error, not an out-of-memory failure.
        assert ArProcess(coeffs=np.full(MAX_ORDER, 0.01)).order == MAX_ORDER
        with pytest.raises(ValueError, match=f"order {MAX_ORDER + 1} exceeds"):
            ArProcess(coeffs=np.full(MAX_ORDER + 1, 0.01))

    def test_coeffs_immutable(self, ar1):
        with pytest.raises(ValueError):
            ar1.coeffs[0] = 0.9


def _stats(state, gramian, coeffs=(0.3, 0.4)):
    return StationaryStatistics(coeffs=coeffs, state_covariance_block=state,
                                gramian_block=gramian, output_variance=1.0, peak_gain=1.0)


def _certificate(lower, upper):
    return CovarianceCertificate(lower=lower, upper=upper, delta=0.1, failure_terms=(0.1,) * 4,
                                 energy_scale=1.0, log_delta=-2.3, feasible=True,
                                 epsilon=0.1, horizon=100)


COEFFS, UNIT, BLOCK = [0.3, 0.4], [0.6, 0.8], [[2.0, 0.5], [0.5, 1.0]]

#: Every array field frozen by process._frozen: (the caller's array, the
#: field of an object built from it).
FROZEN_FIELDS = {
    "ArProcess.coeffs": (COEFFS, lambda c: ArProcess(coeffs=c).coeffs),
    "build_companion": (COEFFS, lambda c: build_companion(ArProcess(coeffs=c))),
    "CovarianceCertificate.lower": (BLOCK, lambda m: _certificate(m, 2.0 * np.eye(2)).lower),
    "CovarianceCertificate.upper": (BLOCK, lambda m: _certificate(np.eye(2), m).upper),
    "DeviationCertificate.direction": (UNIT, lambda w: DeviationCertificate(
        direction=w, radius=1.0, total_failure=0.2, vacuous=False).direction),
    "RateAnalysis.slow_directions": ([[0.6], [0.8]], lambda b: RateAnalysis(
        epsilon_ceiling=1.0, multiplicity=1, slow_directions=b, points=(),
        slope=None).slow_directions),
    "StationaryStatistics.coeffs": (COEFFS, lambda c: _stats(np.eye(2), np.eye(2), c).coeffs),
    "StationaryStatistics.state_covariance_block": (
        BLOCK, lambda m: _stats(m, np.eye(2)).state_covariance_block),
    "StationaryStatistics.gramian_block": (BLOCK, lambda m: _stats(np.eye(2), m).gramian_block),
    **{f"StationaryStatistics.whitened_spectrum[{k}]": (
        BLOCK, lambda m, k=k: _stats(m, np.eye(2)).whitened_spectrum[k]) for k in range(3)},
    "CampaignConfig.directions": (UNIT, lambda w: CampaignConfig(
        process=ArProcess(coeffs=COEFFS), horizon=100, epsilon=0.1, trials=100,
        master_seed=0, directions=(("w", w),)).directions[0][1]),
}


@pytest.mark.parametrize("name", FROZEN_FIELDS)
def test_frozen_field_is_a_read_only_copy(name):
    values, build = FROZEN_FIELDS[name]
    source = np.array(values)
    field = build(source)
    assert field.dtype == float
    with pytest.raises(ValueError, match="read-only"):
        field[0] = 0.0
    assert not np.shares_memory(field, source)


class TestCompanion:
    def test_first_order(self, ar1):
        np.testing.assert_array_equal(build_companion(ar1), [[0.5, 0.0], [1.0, 0.0]])

    def test_second_order(self, ar2):
        np.testing.assert_array_equal(
            build_companion(ar2), [[0.3, 0.4, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        )

    @pytest.mark.parametrize("coeffs", [[0.5], [0.3, 0.4], [0.2, -0.3, 0.1]])
    def test_singular_with_pole_spectrum(self, coeffs):
        a = build_companion(ArProcess(coeffs=coeffs))
        assert np.linalg.det(a) == pytest.approx(0.0, abs=1e-12)
        eigs = np.sort_complex(np.linalg.eigvals(a))
        poles = np.sort_complex(np.append(np.roots([1.0] + [-c for c in coeffs]), 0.0))
        np.testing.assert_allclose(eigs, poles, atol=1e-10)

    def test_first_row_recovers_coeffs(self, ar2):
        np.testing.assert_array_equal(build_companion(ar2)[0, : ar2.order], ar2.coeffs)

    def test_read_only(self, ar2):
        with pytest.raises(ValueError):
            build_companion(ar2)[0, 0] = 0.9


class TestRecursion:
    def test_noise_free_first_order(self):
        # Zero innovations: y_t = 0.5^t exactly (powers of two are exact floats);
        # the path starts with the pre-sample y_0 = 1.
        y = ar_recursion([0.5], [1.0], np.zeros(6))
        np.testing.assert_array_equal(y, 0.5 ** np.arange(0, 7))

    def test_noise_free_second_order_hand_rolled(self):
        y = ar_recursion([0.3, 0.4], [1.0, 2.0], np.zeros(3))
        # (y_-1, y_0) = (1, 2); y1 = .3*2 + .4*1 = 1.0; y2 = .3*1.0 + .4*2 = 1.1;
        # y3 = .3*1.1 + .4*1.0
        np.testing.assert_allclose(y, [1.0, 2.0, 1.0, 1.1, 0.73], atol=1e-15)

    def test_batch_matches_scalar_bitwise(self):
        # A four-trial batch runs the step plan; rerunning each row's
        # pre-samples and innovations through the plain-float loop must give
        # the same path bit for bit.
        process = ArProcess(coeffs=[0.3, 0.4])
        pre, noise, y = simulate_batch(process, 50, [substream(0, i) for i in range(4)])
        for i in range(4):
            single = ar_recursion(process.coeffs, pre[i], noise[i])
            np.testing.assert_array_equal(single[:2], pre[i])
            np.testing.assert_array_equal(single[2:], y[i])

    @settings(max_examples=150)
    @given(st.integers(1, 8), st.integers(1, 5), st.integers(1, 50),
           st.integers(0, 2 ** 31 - 1))
    def test_batch_columns_match_scalar_bitwise(self, order, trials, horizon, seed):
        # A batch runs the step plan and one trial (the last batch of some
        # campaigns) the plain-float loop; every column must match the
        # one-pass plain-float oracle bit for bit.
        assume(horizon > order)
        rng = np.random.default_rng(seed)
        process = ArProcess(coeffs=rng.uniform(-1.0, 1.0, order) / order,
                            noise_variance=rng.uniform(0.5, 2.0))
        seeds = [substream(seed, i) for i in range(trials)]
        pre, noise, y = simulate_batch(process, horizon, seeds)
        assert y.shape == (trials, horizon)
        for i, trial_seed in enumerate(seeds):
            assert_matches_whole_horizon(process, horizon, trial_seed, pre[i], noise[i], y[i])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="pre_samples must have shape"):
            ar_recursion([0.3, 0.4], [1.0, 2.0, 3.0], np.zeros(10))
        with pytest.raises(ValueError, match="pre_samples must have shape"):
            ar_recursion([0.5], [[1.0]], np.zeros(6))
        with pytest.raises(ValueError, match="noise must be 1-D"):
            ar_recursion([0.5], [1.0], np.zeros((6, 1)))
        with pytest.raises(ValueError, match="out must"):
            ar_recursion([0.3, 0.4], np.zeros(2), np.zeros(10), out=np.empty(10))
        with pytest.raises(ValueError, match="out must"):
            ar_recursion([0.3, 0.4], np.zeros(2), np.zeros(10), out=np.empty((12, 1)))


class TestSimulation:
    def test_deterministic_given_seed(self, ar1):
        a = simulate_stationary(ar1, 100, 1234)
        b = simulate_stationary(ar1, 100, 1234)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_shapes(self, ar2):
        assert simulate_stationary(ar2, 50, 1).samples.shape == (52,)
        pre, noise, y = simulate_batch(ar2, 50, [1])
        assert (pre.shape, noise.shape, y.shape) == ((1, 2), (1, 50), (1, 50))

    def test_horizon_must_exceed_order(self, ar2):
        with pytest.raises(ValueError):
            simulate_stationary(ar2, 2, 0)

    def test_stationary_variance_long_run(self, ar1):
        # Closed form sigma^2/(1-theta^2) = 4/3, cross-checked against the
        # Lyapunov route before comparing with the simulation.
        closed_form = 1.0 / (1.0 - 0.25)
        v, _ = solve_companion_lyapunov(ar1.coeffs)
        assert v[0, 0] == pytest.approx(closed_form, rel=1e-12)
        y = simulate_stationary(ar1, 1_000_000, 2024).samples[ar1.order :]
        sample_var = float(np.mean(y ** 2))
        assert sample_var == pytest.approx(closed_form, rel=0.01)

    def test_exact_stationarity_across_ensemble(self, ar1):
        # With stationary initialisation Var(y_t) equals gamma(0) for every t,
        # including t = 1; a burn-in scheme would fail this at the start.
        seeds = [substream(77, i) for i in range(4000)]
        pre, _, y = simulate_batch(ar1, 50, seeds)
        gamma0 = 4.0 / 3.0
        stderr = gamma0 * np.sqrt(2.0 / 4000)
        assert abs(np.mean(y[:, 0] ** 2) - gamma0) <= 3 * stderr
        assert abs(np.mean(y[:, -1] ** 2) - gamma0) <= 3 * stderr
        # Lag-1 cross moment between the pre-sample and the first output.
        gamma1 = 0.5 * gamma0
        lag_stderr = np.sqrt((gamma0 ** 2 + gamma1 ** 2) / 4000)
        assert abs(np.mean(pre[:, -1] * y[:, 0]) - gamma1) <= 3 * lag_stderr

    def test_single_run_head_tail_agreement(self, ar1):
        y = simulate_stationary(ar1, 200_000, 99).samples[ar1.order :]
        head, tail = y[:20_000], y[-20_000:]
        # Variance stderr inflated by the lag-correlation factor (1+r^2)/(1-r^2).
        inflation = (1 + 0.25) / (1 - 0.25)
        stderr = (4.0 / 3.0) * np.sqrt(2.0 * inflation / 20_000)
        assert abs(np.var(head) - np.var(tail)) <= 3 * np.sqrt(2.0) * stderr

    def test_empty_seed_list(self, ar2):
        # No seeds runs the step plan over zero-column buffers; the one-seed
        # loop would index column 0 of them.
        pre, noise, y = simulate_batch(ar2, 10, [])
        assert (pre.shape, noise.shape, y.shape) == ((0, 2), (0, 10), (0, 10))

    def test_batch_rows_match_single_runs(self, ar2):
        seeds = [substream(5, i) for i in range(3)]
        pre, noise, y = simulate_batch(ar2, 64, seeds)
        for i, seed in enumerate(seeds):
            assert_matches_whole_horizon(ar2, 64, seed, pre[i], noise[i], y[i])

    def test_chunked_rows_match_single_runs(self, ar2, monkeypatch):
        # Chunks shorter than the order and a ragged last chunk: the carried
        # samples and the chunked draws must continue each stream exactly,
        # in a batch and in the one-seed simulate_stationary.
        seeds = [substream(6, i) for i in range(3)]
        for chunk in (1, 5):
            monkeypatch.setattr(process_module, "CHUNK", chunk)
            pre, noise, y = simulate_batch(ar2, 23, seeds)
            for i, seed in enumerate(seeds):
                assert_matches_whole_horizon(ar2, 23, seed, pre[i], noise[i], y[i])
            np.testing.assert_array_equal(simulate_stationary(ar2, 23, seeds[0]).samples,
                                          simulate_whole_horizon(ar2, 23, seeds[0]).samples)

    # The AR(6) and AR(8) cases give the one-trajectory loop's lag iterators
    # every offset from 1 to 8 across the chunk edges.
    @pytest.mark.parametrize("coeffs", [[0.5], [0.3, 0.4], AR6_COEFFS, AR8_COEFFS],
                             ids=["ar1", "ar2", "ar6", "ar8"])
    @pytest.mark.parametrize("total", CHUNK_EDGES)
    def test_chunk_boundaries_match_whole_horizon(self, coeffs, total):
        process = ArProcess(coeffs=coeffs)
        horizon = total - process.order
        seeds = [substream(8, i) for i in range(2)]
        pre, noise, y = simulate_batch(process, horizon, seeds)
        for i, seed in enumerate(seeds):
            assert_matches_whole_horizon(process, horizon, seed, pre[i], noise[i], y[i])
        np.testing.assert_array_equal(simulate_stationary(process, horizon, seeds[1]).samples,
                                      simulate_whole_horizon(process, horizon, seeds[1]).samples)

    @pytest.mark.parametrize("coeffs, trials", [([0.5], 1), ([0.3, 0.4], 3)],
                             ids=["ar1-one-seed", "ar2-three-seeds"])
    def test_chunk_buffers_reused_and_not_returned(self, monkeypatch, coeffs, trials):
        # simulate_chunks refills one window and one noise buffer chunk after
        # chunk; simulate_batch must copy out of them.  With one seed the
        # transposed pre-sample block is contiguous, so only an explicit copy
        # keeps it from aliasing the window.
        monkeypatch.setattr(process_module, "CHUNK", 8)
        chunks_of = process_module.simulate_chunks
        yielded = []

        def recording(*args):
            for chunk in chunks_of(*args):
                yielded.append(chunk[1:])
                yield chunk

        monkeypatch.setattr(process_module, "simulate_chunks", recording)
        result = simulate_batch(ArProcess(coeffs=coeffs), 40,
                                [substream(3, i) for i in range(trials)])
        assert len(yielded) == 5
        (window, noise), later = yielded[0], yielded[1:]
        assert all(np.shares_memory(w, window) and np.shares_memory(e, noise)
                   for w, e in later)
        assert not any(np.shares_memory(array, buffer)
                       for array in result for buffer in (window, noise))

    @pytest.mark.parametrize("coeffs, trials", [([0.5], 1), ([0.3, 0.4], 3),
                                                ([0.3, 0.4], 256), (AR6_COEFFS, 5)],
                             ids=["ar1-1", "ar2-3", "ar2-256", "ar6-5"])
    def test_chunk_buffers_start_on_cache_lines(self, coeffs, trials):
        # np.empty alone aligns to 16 bytes, so some of these buffers would
        # start mid cache line.  The horizon spans two chunks, so the views
        # yielded after the carry-over are checked too.
        seeds = [substream(5, i) for i in range(trials)]
        for _, window, noise in process_module.simulate_chunks(ArProcess(coeffs=coeffs),
                                                               CHUNK + 7, seeds):
            assert window.ctypes.data % 64 == 0
            assert noise.ctypes.data % 64 == 0

    @pytest.mark.parametrize("trials", DRAW_BLOCK_EDGES)
    @pytest.mark.parametrize("total", CHUNK_EDGES)
    def test_draw_block_edges_match_whole_horizon(self, total, trials):
        # The draws are filled and transposed one block of 32 trials at a
        # time; a partial last block must fill and move only its own rows.
        process = ArProcess(coeffs=[0.3, 0.4], noise_variance=1.7)
        horizon = total - process.order
        seeds = [substream(9, i) for i in range(trials)]
        pre, noise, y = simulate_batch(process, horizon, seeds)
        for i, seed in enumerate(seeds):
            assert_matches_whole_horizon(process, horizon, seed, pre[i], noise[i], y[i])

    def test_chunk_bytes_pinned(self):
        # Every chunk's window and noise bytes, for one seed (the plain-float
        # loop) and 33 (the step plan, with a partial draw block), over three
        # chunks whose last is ragged.  Recorded when the draws filled the
        # whole batch at once and the recursion rebuilt its views on every
        # chunk: the blocked draws and the step plan keep every bit.
        # Re-recorded when the pre-samples became unit-variance draws times
        # sqrt(s2): the noise bytes and the digest at s2 = 1 did not move,
        # the windows at s2 = 1.7 moved at rounding level only.
        digest = hashlib.sha256()
        for coeffs in ([0.5], [0.3, 0.4], AR6_COEFFS):
            process = ArProcess(coeffs=coeffs, noise_variance=1.7)
            for trials in (1, 33):
                seeds = [substream(12, i) for i in range(trials)]
                for _, window, noise in process_module.simulate_chunks(
                        process, 2 * CHUNK + 7, seeds):
                    digest.update(window.tobytes())
                    digest.update(noise.tobytes())
        assert digest.hexdigest() == (
            "a34f392cddfe912cda2bf149a712064e5b8fd70a7ee69d53bae59b2092bb1e16")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sigma2", [5e-324, 1e-310, 1e300])
    def test_path_scales_with_sqrt_noise_variance(self, sigma2):
        # The pre-samples and innovations are unit-variance draws times
        # sqrt(s2), so a subnormal or huge s2 neither loses the path to
        # underflow nor overflows a solve.
        unit = simulate_stationary(ArProcess(coeffs=[0.3, 0.4]), 2 * CHUNK + 7, 1).samples
        scaled = simulate_stationary(ArProcess(coeffs=[0.3, 0.4], noise_variance=sigma2),
                                     2 * CHUNK + 7, 1).samples / np.sqrt(sigma2)
        assert np.abs(scaled - unit).max() <= 1e-14 * np.abs(unit).max()

    @pytest.mark.parametrize("order", [1, 6, MAX_ORDER])
    def test_batch_chunk_memory(self, order):
        # At 256 trials the window and noise buffers take 2 MiB each and the
        # block of 32 trials' draws 0.25 MiB; the step plan's views and lag
        # tuples add under 0.4 MiB at MAX_ORDER.  Draws held for the whole
        # batch (2 MiB), any other buffer-sized temporary, or a plan holding
        # a (coefficient, lag) pair per lag and step, break the bound.
        process = ArProcess(coeffs=np.full(order, 0.01))
        seeds = [substream(4, i) for i in range(256)]
        tracemalloc.start()
        try:
            for _ in process_module.simulate_chunks(process, 2 * CHUNK + 7, seeds):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5.5 * 2 ** 20

    @pytest.mark.parametrize("horizon", [100.7, True, "100"])
    def test_horizon_must_be_an_integer(self, ar1, horizon):
        # int() would turn 100.7 into 100 without a word.
        with pytest.raises(ValueError, match="horizon"):
            simulate_stationary(ar1, horizon, 3)
        with pytest.raises(ValueError, match="horizon"):
            simulate_batch(ar1, horizon, [3, 4])

    def test_numpy_integer_horizon_accepted(self, ar1):
        traj = simulate_stationary(ar1, np.int64(100), 3)
        np.testing.assert_array_equal(traj.samples, simulate_stationary(ar1, 100, 3).samples)

    def test_unsolvable_stationary_law_surfaces(self, ar1, monkeypatch):
        # The simulator solves for the stationary covariance itself; a solve
        # that returns NaN must stop it rather than seed NaN paths.
        monkeypatch.setattr(np.linalg, "solve", lambda m, b: np.full(np.shape(b), np.nan))
        with pytest.raises(ConvergenceError):
            next(process_module.simulate_chunks(ar1, 100, [1, 2]))

    def test_single_path_memory(self, ar2):
        # The float data is 16 B per sample (path and noise); joining the
        # pre-samples to the observed row adds 8 more.  Holding the chunks,
        # Python floats for the whole path, or another copy of a finished
        # array would break the bound.
        horizon = 200_000
        tracemalloc.start()
        try:
            traj = simulate_stationary(ar2, horizon, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traj.samples.shape == (horizon + 2,)
        assert peak <= 28 * horizon

    def test_substreams_are_distinct(self):
        a = np.random.default_rng(substream(1, 0)).standard_normal(8)
        b = np.random.default_rng(substream(1, 1)).standard_normal(8)
        assert not np.allclose(a, b)


def assert_matches_whole_horizon(process, horizon, seed, pre, noise, observed):
    oracle = simulate_whole_horizon(process, horizon, seed)
    np.testing.assert_array_equal(oracle.samples[: process.order], pre)
    np.testing.assert_array_equal(oracle.noise, noise)
    np.testing.assert_array_equal(oracle.samples[process.order :], observed)


class TestTrajectoryAccessors:
    def make(self):
        # samples = (y_0, y_1, y_2, y_3) for order 1, horizon 3.
        return Trajectory(samples=[1.0, 2.0, 3.0, 4.0])

    def test_indexing(self):
        path = OraclePath(samples=np.array([1.0, 2.0, 3.0, 4.0]), noise=np.zeros(3), order=1,
                          horizon=3)
        np.testing.assert_array_equal(lag_window(path, 2), [3.0])

    def test_arrays_read_only_without_copy(self):
        samples = np.arange(4.0)
        traj = Trajectory(samples=samples)
        assert np.shares_memory(traj.samples, samples)
        with pytest.raises(ValueError):
            traj.samples[0] = 9.0
        # The caller's own array stays writable.
        samples[0] = 9.0

    @pytest.mark.parametrize("samples", [
        [1.0, np.nan, 3.0, 4.0], [1.0, np.inf, 3.0], [[1.0, 2.0], [3.0, 4.0]], 1.0,
    ], ids=["nan-sample", "infinite-sample", "two-dim-samples", "scalar-samples"])
    def test_inconsistent_fields_rejected(self, samples):
        with pytest.raises(ValueError, match="samples must be a 1-D array of finite floats"):
            Trajectory(samples=samples)

    def test_lag_window_order_two(self):
        path = OraclePath(samples=np.array([1.0, 2.0, 3.0, 4.0, 5.0]), noise=np.zeros(3),
                          order=2, horizon=3)
        # samples = (y_-1, y_0, y_1, y_2, y_3); window at t=1 is (y_1, y_0).
        np.testing.assert_array_equal(lag_window(path, 1), [3.0, 2.0])

    def test_csv_export(self, tmp_path):
        traj = self.make()
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "y"
        assert len(lines) == 5
        assert float(lines[1]) == 1.0

    @pytest.mark.parametrize("total", [3, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1,
                                       2 * CSV_BLOCK + 3])
    def test_csv_matches_one_shot_text(self, tmp_path, total):
        # The file is written in blocks of _CSV_BLOCK samples; the block
        # boundaries must not show in the bytes.  Three samples is the
        # shortest trajectory (order 1, horizon 2).
        rng = np.random.default_rng(total)
        samples = rng.standard_normal(total) * 10.0 ** rng.integers(-300, 300, total)
        traj = Trajectory(samples=samples)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        one_shot = "\n".join(["y"] + [repr(float(v)) for v in traj.samples]) + "\n"
        assert path.read_bytes() == one_shot.encode("utf-8")

    def test_csv_memory_is_one_block(self, tmp_path):
        # One block of text takes well under 1 MiB; the whole file's
        # text at this length takes about 110 MiB.
        horizon = 1_000_000
        traj = Trajectory(samples=np.random.default_rng(3).standard_normal(horizon + 1))
        tracemalloc.start()
        try:
            traj.to_csv(tmp_path / "traj.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20


def repr_text(values: np.ndarray) -> bytes:
    """The text Trajectory.to_csv writes for one block: repr of each value."""
    return ("\n".join(map(repr, values.tolist())) + "\n").encode("ascii")


def finite_bits(pattern: int) -> bool:
    return (pattern >> 52) & 0x7FF != 0x7FF


class TestReprLines:
    """The vectorised formatter behind Trajectory.to_csv, against repr."""

    @settings(max_examples=300)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    def test_matches_repr_on_floats(self, values):
        block = np.array(values, dtype=float)
        assert _repr_lines(block) == repr_text(block)

    @settings(max_examples=300)
    @given(st.lists(st.integers(0, 2 ** 64 - 1).filter(finite_bits), min_size=1, max_size=40))
    def test_matches_repr_on_bit_patterns(self, patterns):
        block = np.array(patterns, dtype=np.uint64).view(np.float64)
        assert _repr_lines(block) == repr_text(block)

    def test_matches_repr_in_bulk(self):
        rng = np.random.default_rng(20)
        gaussians = [rng.standard_normal(20_000) * 10.0 ** k for k in range(-3, 4)]
        # The edges of the fast binades and of fixed notation.
        edges = np.array([1e-4, 2.0 ** -14, 2.0 ** 50, 1e15, 1e16])
        powers = 2.0 ** np.arange(-1074, 1024)
        integers = rng.integers(-2 ** 53, 2 ** 53, 10_000).astype(float)
        decimals = np.concatenate([
            np.round(rng.standard_normal(700) * 10.0 ** rng.integers(0, 8, 700), places)
            for places in range(16)])
        subnormals = rng.integers(1, 2 ** 52, 2_000, dtype=np.uint64).view(np.float64)
        extremes = np.array([0.0, np.finfo(float).max, np.finfo(float).tiny, 5e-324])
        parts = gaussians + [subnormals, extremes]
        for near in (edges, powers, integers, decimals):
            parts += [near, np.nextafter(near, 0.0), np.nextafter(near, np.inf)]
        values = np.concatenate(parts)
        values = np.concatenate([values, -values])
        values = values[np.isfinite(values)]
        assert values.size >= 200_000
        text = b"".join(_repr_lines(values[start : start + CSV_BLOCK])
                        for start in range(0, values.size, CSV_BLOCK))
        assert text == repr_text(values)

    @pytest.mark.parametrize("values", [
        [0.0, -1e-300, 0.5, 0.1, 1e20, 2.5e-5, -0.3, 5e-324, -0.0],
        [1e300, 2.0, 0.1234, 1.0],
        [0.0],
        [-0.0, 1e-5, 2.0 ** 60],
    ], ids=["first-last-adjacent", "leading-pair", "single", "all-fallback"])
    def test_fallback_rows_keep_their_place(self, values):
        # Zero, subnormals, values outside 2**-14 <= |x| < 2**50, exact
        # binary fractions such as 0.5 and values below 1e-4 go through repr.
        block = np.array(values)
        assert _repr_lines(block) == repr_text(block)

    def test_gaussian_rows_take_the_fast_path(self):
        # Bytes alone cannot tell the fast path from repr; on a Gaussian
        # block nearly every row must take it.
        block = np.random.default_rng(5).standard_normal(CSV_BLOCK)
        _, _, fast = _shortest(block.view(np.uint64))
        assert fast.sum() >= CSV_BLOCK - 2
