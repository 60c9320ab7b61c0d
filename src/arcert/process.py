"""Gaussian AR(n) processes: stability checks, companion form, exact-stationary simulation.

The simulation contract is deterministic: a trajectory is a pure function of
(process, horizon, seed).  Parallel Monte Carlo derives one RNG substream per
trial through :func:`substream`, so campaigns reproduce bit-for-bit regardless
of batch size or thread count.

:func:`simulate_chunks` is the one simulator; its recursion runs
:func:`ar_recursion` for one seed and :func:`_step_plan` for a batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from ._floattext import _repr_lines
from .errors import StabilityError
from .linalg import _companion, solve_companion_lyapunov, symmetric_sqrt

#: Margin below the unit circle required of every characteristic root.
#: Lyapunov solves degrade as roots approach the circle, so exact unit-modulus
#: roots are rejected with room to spare.
STABILITY_MARGIN = 1e-9

#: Largest accepted process order.  The stationary solve is one
#: (n+1) x (n+1) system, so memory no longer sets this cap; the campaign's
#: per-trial work grows like n^2 per sample and n^3 per trial, and no order
#: above 32 has been measured end to end.
MAX_ORDER = 32

#: Time steps simulated per chunk by :func:`simulate_chunks`.  A fixed
#: constant, not a setting: chunk boundaries fix the order in which campaign
#: statistics are summed, so reports stay independent of batch size and
#: thread count.  At 1024 steps a 256-trial batch's noise and window buffers
#: take 2 MB each, and its block of draws (_DRAW_BLOCK trials) 256 KB.  A 256-trial AR(1) campaign at N = 1e5 (one
#: thread, 2-core x86-64 VM, median of 12 interleaved rounds) ran at
#: 264 / 272 / 274 / 279 / 263 trials/s for 256 / 512 / 1024 / 2048 / 4096
#: steps in a slow phase of the shared VM, and at 572 / 590 / 604 / 617 / 621
#: in a fast one: 1024 is within 3% of the best in both, with a quarter of
#: the buffer memory of 4096.
CHUNK = 1024

#: Trials whose draws :func:`simulate_chunks` holds at once.  Their rows
#: are transposed into the time-major noise buffer while still in cache:
#: that many sequential input rows stay within the prefetchers' reach (on a
#: 2-core x86-64 VM one strided pass over 256 trials x 4096 steps ran 2.5x
#: slower), and at CHUNK steps the block takes 256 KB.  Each entry is drawn
#: and multiplied once either way, so the bits do not depend on the block.
_DRAW_BLOCK = 32

#: Samples per block of text written by :meth:`Trajectory.to_csv`, which
#: holds one block's text and formatting buffers (1.1 MB) at a time.  Not
#: tied to CHUNK: at N = 1e6, blocks of 1024 / 2048 / 4096 / 8192 / 16384
#: took 0.58 / 0.32 / 0.32 / 0.38 / 0.48 s (2-core x86-64 VM, median of 5
#: interleaved rounds); larger blocks fall out of cache.
_CSV_BLOCK = 4096

SeedLike = Union[int, np.random.SeedSequence]


def _integer(value, field: str, error: type[Exception] = ValueError) -> int:
    """``value`` as an int; ``error`` naming ``field`` unless it is a Python or
    numpy integer, so a bool or a float such as 5000.7 is never truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{field}: must be an integer, got {value!r}")
    return int(value)


def _frozen(value) -> np.ndarray:
    """A read-only float copy of ``value``: the one way an array field is
    frozen, so no caller's array is aliased or written through."""
    out = np.array(value, dtype=float)
    out.flags.writeable = False
    return out


def characteristic_roots(coeffs) -> np.ndarray:
    """Roots of the AR characteristic polynomial (the process poles)."""
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coeffs must be a non-empty 1-D vector")
    if not np.all(np.isfinite(c)):
        raise ValueError("coeffs must be finite")
    return np.linalg.eigvals(_companion(c)[:-1, :-1])


def check_schur_stable(coeffs) -> bool:
    """True iff every characteristic root has modulus below 1 - STABILITY_MARGIN."""
    roots = characteristic_roots(coeffs)
    return bool(np.max(np.abs(roots)) < 1.0 - STABILITY_MARGIN)


@dataclass(frozen=True, eq=False)
class ArProcess:
    """A Schur-stable AR(n) process y_t = c_1 y_{t-1} + ... + c_n y_{t-n} + e_t.

    ``coeffs`` holds (c_1, ..., c_n); ``noise_variance`` is the variance of the
    i.i.d. Gaussian innovations e_t.  Construction rejects unstable coefficient
    vectors (and, through :func:`characteristic_roots`, empty, multi-axis or
    non-finite ones), so every instance describes a stationary process.  The
    order is at most MAX_ORDER.
    """

    coeffs: np.ndarray
    noise_variance: float = 1.0

    def __post_init__(self):
        c = _frozen(np.atleast_1d(np.asarray(self.coeffs, dtype=float)))
        sigma2 = float(self.noise_variance)
        if not np.isfinite(sigma2) or sigma2 <= 0.0:
            raise ValueError(f"noise_variance must be a positive finite real, got {sigma2!r}")
        if c.size > MAX_ORDER:
            raise ValueError(f"order {c.size} exceeds the maximum order {MAX_ORDER}")
        if not check_schur_stable(c):
            raise StabilityError(
                "coefficients are not Schur-stable: some characteristic root has "
                f"modulus >= {1.0 - STABILITY_MARGIN}"
            )
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "noise_variance", sigma2)

    @property
    def order(self) -> int:
        return int(self.coeffs.size)


def build_companion(process: ArProcess) -> np.ndarray:
    """Read-only companion matrix A of a stable AR(n) process, laid out by
    :func:`arcert.linalg._companion`; the solves take ``process.coeffs``."""
    return _frozen(_companion(process.coeffs))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A simulated sample path (y_{1-n}, ..., y_N), the one ``simulate`` writes:
    ``samples`` holds the n stationary pre-samples, then the N recursion
    outputs, as a read-only view of the array handed in, not a copy.  The
    innovations that drove it are returned by :func:`simulate_batch` only.
    """

    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float).view()
        if samples.ndim != 1 or not np.all(np.isfinite(samples)):
            raise ValueError("samples must be a 1-D array of finite floats")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    def to_csv(self, path) -> None:
        """Write the sample path as a single-column CSV with a one-line header.

        The file holds exactly the bytes of "y\n" followed by
        "\n".join(map(repr, samples.tolist())) + "\n", built _CSV_BLOCK
        samples at a time by ``_floattext._repr_lines``: Ryu's shortest
        digits in numpy for 1e-4 <= |x| < 2**50, and ``repr`` itself for
        zero, subnormals, other magnitudes and Ryu's trailing-zero case.
        At N = 1e6 it took 0.35-0.41 s against 0.89-1.08 s for a ``repr``
        per sample (2-core x86-64 VM, medians of 7 interleaved rounds).
        """
        with open(path, "wb") as fh:
            fh.write(b"y\n")
            for start in range(0, self.samples.size, _CSV_BLOCK):
                fh.write(_repr_lines(self.samples[start : start + _CSV_BLOCK]))


def ar_recursion(coeffs, pre_samples, noise, out=None) -> np.ndarray:
    """Run the AR recursion y_t = sum_k c_k y_{t-k} + e_t over one trajectory
    and return the whole path (y_{1-n}, ..., y_N).

    ``pre_samples`` holds (y_{1-n}, ..., y_0), shape (n,); ``noise`` holds
    (e_1, ..., e_N), shape (N,).  The result, shape (n + N,), starts with a
    copy of ``pre_samples`` and is written into ``out`` when one is given
    (``pre_samples`` may be a view of its first n entries).  A step adds the
    innovation, then the lag terms in increasing k, in plain floats: the
    order of :func:`_step_plan`, so a batch's columns match it bit for bit.
    Lag k is read through a list iterator trailing the growing path by k
    entries (it sees items appended after it was made), so a step indexes
    nothing.  At N = 1e6 this takes 0.33 s for an AR(2) and 0.63 s for an
    AR(6), against 0.59 s and 0.87 s when indexing path[-1 - k] (2-core
    x86-64 VM, median of 7 interleaved rounds).
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    pre = np.asarray(pre_samples, dtype=float)
    e = np.asarray(noise, dtype=float)
    n = c.size
    if pre.shape != (n,) or e.ndim != 1:
        raise ValueError(f"pre_samples must have shape ({n},) and noise must be 1-D")
    shape = (n + e.size,)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise ValueError(f"out must have shape {shape}")
    path = pre.tolist()
    lags = []
    for k, c_k in enumerate(c.tolist(), start=1):
        lag = iter(path)
        for _ in range(n - k):
            next(lag)
        lags.append((c_k, lag))
    append = path.append
    for acc in e.tolist():
        for c_k, lag in lags:
            acc += c_k * next(lag)
        append(acc)
    out[:] = path
    return out


def _step_plan(coeffs: np.ndarray, out: np.ndarray, noise: np.ndarray):
    """The batched recursion over ``out`` and ``noise`` with every view it
    reads built once: returns ``run(width)``, which writes rows n, ...,
    n + width - 1 of ``out``.

    Step s writes row n + s from innovation row s and the first lag term,
    then adds the other lag terms in increasing k, in place.  A step holds
    its row, its innovation row, its first lag row and one tuple of its
    other lag rows; the row views are shared, so the plan grows like n per
    step.  The coefficients are full rows, so no product converts a Python
    float, and one scratch row holds each product.  The plan holds views,
    so it stays valid while the buffers are refilled in place.  Run 98
    times over 1024 steps of 256 trials, an AR(1) step took 1.67 us and an
    AR(6) step 9.4 us, against 2.18 us and 9.6 us when every call rebuilt
    its views (2-core x86-64 VM, median of 21 interleaved rounds).
    """
    rows = list(out)
    n = len(rows) - len(noise)
    c_first, *c_rest = np.repeat(coeffs[:, None], noise.shape[1], axis=1)
    steps = [(rows[t], e_row, rows[t - 1], tuple(rows[t - n : t - 1][::-1]))
             for t, e_row in enumerate(noise, start=n)]
    tmp = np.empty(noise.shape[1])

    def run(width: int) -> None:
        mul, add = np.multiply, np.add
        for row, e_row, prev, lags in steps[:width]:
            add(e_row, mul(prev, c_first, tmp), row)
            if lags:  # an AR(1) step has none; an empty zip costs it a fifth
                for lag, c_row in zip(lags, c_rest):
                    add(row, mul(lag, c_row, tmp), row)

    return run


def substream(master_seed: int, trial_index: int) -> np.random.SeedSequence:
    """RNG substream for one Monte Carlo trial.

    The rule is SeedSequence(master_seed, spawn_key=(trial_index,)): trial
    streams are statistically independent and the mapping is stable across
    batch sizes, thread counts and library versions.
    """
    return np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(trial_index),))


def _aligned_empty(shape: tuple[int, int]) -> np.ndarray:
    """Uninitialised float array whose data starts on a 64-byte boundary.

    np.empty is only as aligned as malloc (16 bytes with glibc), so rows would
    start on a cache line or not by what the heap held before.  With np.empty
    here a 256-trial AR(1) campaign at N = 1e5 (in-process, one thread, 2-core
    x86-64 VM) was slower in 22 of 30 interleaved rounds: medians 0.552 and
    0.602 s against 0.534 and 0.546 s in two runs of 15."""
    size = shape[0] * shape[1]
    raw = np.empty(size + 7)
    skip = (-raw.ctypes.data % 64) // raw.itemsize
    return raw[skip : skip + size].reshape(shape)


def simulate_chunks(process: ArProcess, horizon: int, seeds: list[SeedLike],
                    ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Simulate one exactly stationary trajectory per seed, CHUNK time steps
    at a time.  The only code that draws a path.

    Yields ``(start, window, noise)`` per chunk, time-major: row p is one
    time step and column b is the trial of seeds[b].  With the path written
    as (y_{1-n}, ..., y_N) and indexed from 0, ``window`` (shape (n + L, B))
    holds its entries start, ..., start + n + L - 1: the n samples carried
    over from the previous chunk (the stationary pre-samples for the first),
    then the chunk's L new samples.  ``noise`` (shape (L, B)) holds the L
    innovations that drive those new samples.  Both are views of buffers
    that are allocated once per call and refilled for every chunk, so they
    are valid only until the generator resumes; copy what must outlive the
    chunk.  Only O(len(seeds) * CHUNK) floats are alive at once, whatever
    the horizon.

    Each seed's stream first draws the initial companion state from its
    stationary law per unit variance, through a symmetric square root of its
    covariance (no burn-in), then N(0, 1) innovations in time order; both
    are scaled by sqrt(noise_variance).  Chunked ``standard_normal`` calls
    continue one stream bit for bit, so the chunks do not change the path.
    The draws fill one contiguous row per trial (``Generator`` rejects a
    strided ``out``), _DRAW_BLOCK trials at a time; one scaled transpose per
    block turns them time-major, and the recursion writes the new samples
    straight into the window: :func:`ar_recursion` for exactly one seed,
    otherwise (no seeds included) one step plan over the reused buffers,
    built once per call (:func:`_step_plan`).
    """
    horizon = _integer(horizon, "horizon")
    if horizon <= process.order:
        raise ValueError("horizon must exceed the process order")
    n = process.order
    state_cov, _ = solve_companion_lyapunov(process.coeffs)
    factor = symmetric_sqrt(state_cov)
    scale = np.sqrt(process.noise_variance)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    size = min(CHUNK, horizon)
    drawn = _aligned_empty((min(_DRAW_BLOCK, len(rngs)), size))
    noise = _aligned_empty((size, len(rngs)))
    window = _aligned_empty((n + size, len(rngs)))
    for i, rng in enumerate(rngs):
        # state = (y_0, y_{-1}, ..., y_{-n}); keep (y_{1-n}, ..., y_0), drop y_{-n}.
        window[:n, i] = (factor @ rng.standard_normal(n + 1))[n - 1 :: -1] * scale
    blocks = [(b, rngs[b : b + _DRAW_BLOCK]) for b in range(0, len(rngs), _DRAW_BLOCK)]
    drawn_rows = list(drawn)
    run = _step_plan(process.coeffs, window, noise) if len(rngs) != 1 else None
    for start in range(0, horizon, CHUNK):
        width = min(CHUNK, horizon - start)
        for b, block in blocks:
            for rng, row in zip(block, drawn_rows):
                rng.standard_normal(out=row[:width])
            np.multiply(drawn[: len(block), :width].T, scale,
                        out=noise[:width, b : b + _DRAW_BLOCK])
        if run is None:
            ar_recursion(process.coeffs, window[:n, 0], noise[:width, 0],
                         out=window[: n + width, 0])
        else:
            run(width)
        yield start, window[: n + width], noise[:width]
        # The last n samples become the next chunk's carried rows.
        window[:n] = window[width : width + n]


def simulate_batch(process: ArProcess, horizon: int, seeds: list[SeedLike],
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate one trajectory per seed; returns (pre, noise, observed) row-stacked.

    Each chunk of the time-major :func:`simulate_chunks` is copied into the
    result as it arrives, so only the result grows with len(seeds) * horizon
    and nothing returned shares memory with the reused chunk buffers; the
    Monte Carlo campaign consumes the chunks directly instead.
    The innovations are copied even where :func:`simulate_stationary` drops
    them, keeping ``simulate``'s peak at about 25 B per sample: a lower peak
    read 13-14% more ``oneshot-cli`` ``peak_rss_mb``, as the benchmark reads
    each output whole (ROADMAP item 1 counts its lines in blocks first).
    """
    n = process.order
    for start, window, chunk_noise in simulate_chunks(process, horizon, seeds):
        if start == 0:
            # An explicit copy: for one seed the transpose of window[:n] is
            # already contiguous, so ascontiguousarray would return a view
            # of the reused window.
            pre = window[:n].T.copy()
            noise = np.empty((len(seeds), horizon))
            observed = np.empty_like(noise)
        for out, part in ((noise, chunk_noise), (observed, window[n:])):
            out[:, start : start + len(part)] = part.T
    return pre, noise, observed


def simulate_stationary(process: ArProcess, horizon: int, seed: SeedLike) -> Trajectory:
    """Simulate an exactly stationary trajectory of length horizon: the
    one-seed case of :func:`simulate_batch`, run by :func:`ar_recursion`,
    keeping the path only.  Deterministic given (process, horizon, seed)."""
    pre, _, observed = simulate_batch(process, horizon, [seed])
    return Trajectory(samples=np.concatenate([pre[0], observed[0]]))
