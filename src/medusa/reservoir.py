"""Reservoir-computing prediction: ESN, direct sensor readout, and hybrid.

Three architectures share one linear readout recipe:

* ``esn``    : readout over echo-state-network activations,
* ``prc``    : readout directly over the (multiplexed) sensor inputs,
* ``hybrid`` : readout over both, concatenated.

Temporal multiplexing (`MuxedInput`) augments each sensor with strided
lagged copies of its recent history and rescales the block so the largest
possible summed input magnitude is 1.  Readouts are trained by least
squares on the post-washout samples, optionally against targets shifted
into the future on a horizon grid, from one set of normal equations that
reads the features a block of rows at a time (`FeatureStream`).
"""

from __future__ import annotations

import copy
import functools
import math
import struct
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    BlobCorrupt,
    ConfigMismatch,
    ConstantTarget,
    RankDeficient,
    SeedCollapse,
    TooShort,
    UntrainedHorizon,
    require_finite,
)
from .series import FORGET_TOL, default_threshold, runs, time_chunks

DEFAULT_SPECTRAL_RADIUS = 0.35
RIDGE_DEFAULT = 1e-8
AGGREGATE_WASHOUT_SAMPLES = 10_000
PULSATILE_WASHOUT_SAMPLES = 1_000
PULSE_REFRACTORY_S = 0.5
BLOCK_ROWS = 2_048      # feature rows per streamed block; bounds a block's memory
# time chunks a stream steps at once: the fewest whose product by Bᵀ rounds as
# the same rows of the product over all K chunks (1 or 2 state rows can differ)
MIN_GROUP_CHUNKS = 4

_BLOB_MAGIC = b"MDS1"
_BLOB_HEADER = struct.Struct("<4sBIIIff")


class Architecture(NamedTuple):
    """The feature blocks an architecture's readout reads, left to right."""

    code: int       # its byte in the MDS1 blob header
    states: bool    # the reservoir activations
    mux: bool       # the multiplexed sensor inputs


# the one place an architecture name decides anything
ARCHITECTURES = {
    "esn": Architecture(code=1, states=True, mux=False),
    "prc": Architecture(code=0, states=False, mux=True),
    "hybrid": Architecture(code=2, states=True, mux=True),
}


@dataclass
class ReservoirConfig:
    """Topology and run parameters shared by all architectures."""

    n_nodes: int = 100
    spectral_radius: float = DEFAULT_SPECTRAL_RADIUS
    mux_horizon_s: float = 2.0
    mux_stride: int = 6
    leak: float = 0.0
    architecture: str = "hybrid"
    seed: int = 0
    n_sensors: int = 4
    frame_rate: float = 60.0

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if not 0.0 < self.spectral_radius < 1.0:
            raise ValueError("spectral_radius must lie in (0, 1)")
        if self.mux_horizon_s < 0:
            raise ValueError("mux_horizon_s must be >= 0")
        if self.mux_stride < 1:
            raise ValueError("mux_stride must be >= 1")
        if not 0.0 <= self.leak < 1.0:
            raise ValueError("leak must lie in [0, 1)")
        if ARCHITECTURES[self.architecture].states and self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1 for {self.architecture}")
        if self.n_sensors < 1:
            raise ValueError("n_sensors must be >= 1")
        if self.frame_rate <= 0:
            raise ValueError("frame_rate must be positive")

    @property
    def n_lags(self) -> int:
        return _mux_lags(self.mux_horizon_s, self.mux_stride, self.frame_rate)

    @property
    def input_width(self) -> int:
        return self.n_sensors * self.n_lags


def _mux_lags(mux_horizon_s: float, stride: int, frame_rate: float) -> int:
    """Lags per sensor: the current sample plus one per stride over the span."""
    span = mux_horizon_s * frame_rate
    span_samples = round(span)
    if abs(span - span_samples) > 1e-9:
        raise ValueError("mux_horizon_s * frame_rate must be an integer sample count")
    if span_samples % stride != 0:
        raise ValueError("mux_horizon_s span must be divisible by mux_stride")
    return span_samples // stride + 1


class MuxedInput:
    """Sensor histories concatenated per sensor, globally rescaled.

    Column layout is sensor-major: all lags of sensor 0 (current sample
    first), then all lags of sensor 1, and so on.  History before the
    series start is zero (the sensors are standardized, so zero is the
    mean).  The whole block is scaled by one scalar, by default so that
    max_T |sum_components U(T)| equals 1 (the `shared_mux_scale` of these
    sensors alone); pass ``scale`` to share one factor across datasets.

    It holds a zero-padded copy of the scaled sensors: `fill` builds any
    row range on demand, and ``values``, every row, is built on first read.
    """

    def __init__(self, sensors, mux_horizon_s: float, stride: int, frame_rate: float,
                 scale: float | None):
        x = _as_columns(sensors)
        n, n_sensors = x.shape
        self.n_lags = _mux_lags(mux_horizon_s, stride, frame_rate)
        self.stride = stride
        self.width = n_sensors * self.n_lags
        self.span = (self.n_lags - 1) * stride
        if n <= self.span:
            raise TooShort(f"need more than {self.span} samples, got {n}")
        self.padded = np.zeros((self.span + n, n_sensors))
        self.padded[self.span:] = x
        if scale is None:
            scale = shared_mux_scale([x], mux_horizon_s, stride, frame_rate)
        # each lag is a copy of one sample, so scaling the samples once
        # gives the rows bitwise as scaling every row would
        self.padded *= scale

    def __len__(self) -> int:
        return self.padded.shape[0] - self.span

    @functools.cached_property
    def values(self) -> np.ndarray:
        """Every row, (n_samples, n_sensors * n_lags)."""
        return self.fill(0, len(self), np.empty((len(self), self.width)))

    def fill(self, start: int, stop: int, out: np.ndarray) -> np.ndarray:
        """Rows start..stop into ``out``, sensor-major."""
        # window t holds samples t - span .. t; lag l is its entry span - l * stride
        windows = sliding_window_view(self.padded[start:stop + self.span], self.span + 1, axis=0)
        np.copyto(out.reshape(stop - start, -1, self.n_lags),
                  windows[:, :, self.span::-self.stride])
        return out

    def peak(self) -> float:
        """max_T |sum_components U(T)| of the rows, a block at a time."""
        buf = np.empty((min(BLOCK_ROWS, len(self)), self.width))
        return max(float(np.abs(self.fill(start, stop, buf[:stop - start]).sum(axis=1)).max())
                   for start, stop in _row_blocks(0, len(self)))


def _row_blocks(start: int, stop: int) -> list[tuple[int, int]]:
    """Rows start..stop as consecutive ranges of at most `BLOCK_ROWS` rows."""
    return [(s, min(s + BLOCK_ROWS, stop)) for s in range(start, stop, BLOCK_ROWS)]


def _as_columns(series) -> np.ndarray:
    """A float (n,) series as an (n, 1) column view; (n, c) as it is."""
    x = np.asarray(series, dtype=float)
    return x[:, None] if x.ndim == 1 else x


def build_mux(
    sensors: np.ndarray,
    mux_horizon_s: float,
    stride: int,
    frame_rate: float,
    scale: float | None = None,
) -> MuxedInput:
    """A `MuxedInput` with its ``values`` built in this call."""
    mux = MuxedInput(sensors, mux_horizon_s, stride, frame_rate, scale)
    mux.values      # read here, so that the whole build is inside this call
    return mux


def shared_mux_scale(
    sensor_sets,
    mux_horizon_s: float,
    stride: int,
    frame_rate: float,
) -> float:
    """One mux scale valid for several datasets jointly.

    The factor is 1 over the largest summed-input magnitude across all the
    sets, so the |sum U(T)| <= 1 bound holds on every one of them while
    models trained on one set stay applicable to the others.  Each set's
    unscaled mux is built a block at a time.
    """
    peak = max((MuxedInput(x, mux_horizon_s, stride, frame_rate, 1.0).peak()
                for x in sensor_sets), default=0.0)
    return 1.0 / peak if peak > 0 else 1.0


# ---------------------------------------------------------------------------
# Echo state network
# ---------------------------------------------------------------------------

@dataclass
class EsnState:
    """Fixed random reservoir weights plus the (zero) initial activation."""

    input_weights: np.ndarray       # (n_nodes, input_width)
    recurrent_weights: np.ndarray   # (n_nodes, n_nodes)
    state: np.ndarray               # (n_nodes,)
    config: ReservoirConfig


def spectral_radius(matrix: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a square matrix."""
    return float(np.abs(np.linalg.eigvals(matrix)).max())


def _substream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def esn_init(config: ReservoirConfig) -> EsnState:
    """Draw the random input and recurrent weights for a configuration.

    Entries are i.i.d. uniform on [-0.5, 0.5].  Input columns are drawn
    from one substream per (sensor, lag), so growing the mux horizon
    appends new lag columns without redrawing the existing ones.  The
    recurrent matrix is rescaled to the configured spectral radius.

    Each draw is made once per process and shared: the returned weights
    and start state are read-only, so copy them before modifying.
    """
    if not ARCHITECTURES[config.architecture].states:
        raise ValueError(f"architecture {config.architecture!r} has no reservoir to initialize")
    a, b, x0 = _draw_reservoir(config.seed, config.n_nodes, config.n_sensors,
                               config.n_lags, config.spectral_radius)
    return EsnState(input_weights=a, recurrent_weights=b, state=x0, config=config)


@functools.lru_cache(maxsize=8)
def _draw_reservoir(seed: int, n: int, n_sensors: int, n_lags: int, radius: float):
    """(A, B, zero state) of `esn_init`, read-only; the key is all it depends on."""
    a = np.empty((n, n_sensors * n_lags))
    for s in range(n_sensors):
        for lag in range(n_lags):
            rng = _substream(seed, 1, s, lag)
            a[:, s * n_lags + lag] = rng.uniform(-0.5, 0.5, n)

    for attempt in range(5):
        rng = _substream(seed, 2, attempt)
        b = rng.uniform(-0.5, 0.5, (n, n))
        rho = spectral_radius(b)
        if rho > 1e-12:
            b *= radius / rho
            x0 = np.zeros(n)
            for arr in (a, b, x0):
                arr.flags.writeable = False
            return a, b, x0
    raise SeedCollapse("recurrent draws repeatedly yielded zero spectral radius")


def _leak(x: np.ndarray, leak: float) -> np.ndarray:
    """First-order low-pass out[t] = leak*out[t-1] + (1-leak)*x[t] from out[-1] = 0."""
    out = np.empty_like(x)
    acc = np.zeros(x.shape[1:])
    for t in range(x.shape[0]):
        acc = leak * acc + (1.0 - leak) * x[t]
        out[t] = acc
    return out


def _leaked(u, leak: float):
    """Input rows or a `MuxedInput` through `_leak`; ``u`` itself at leak 0.

    A `MuxedInput` is copied with its zero-padded samples leaked once: each
    mux column is a lagged copy of one sample, and the zero pad holds the
    filter at exactly 0 until that lag's first sample, so the copy's rows
    are bitwise the leaked rows."""
    if leak == 0.0:
        return u
    if not isinstance(u, MuxedInput):
        return _leak(u, leak)
    leaked = copy.copy(u)
    vars(leaked).pop("values", None)    # built from the unleaked samples
    leaked.padded = _leak(u.padded, leak)
    return leaked


def _forgetting_steps(recurrent_weights: np.ndarray) -> int | None:
    """Steps after which the start state no longer shows in a float64 state.

    With c = σ_max(B) < 1, two runs on one input that start from different
    states in [-1, 1]^n differ after k steps by at most c^k·√n (tanh is
    1-Lipschitz).  Returns the smallest k with c^k·√n <= ``FORGET_TOL``,
    or None when c >= 1 gives no bound.
    """
    b = np.ascontiguousarray(recurrent_weights, dtype=float)
    return _forgetting_steps_of(b.tobytes(), b.shape[0])


@functools.lru_cache(maxsize=8)
def _forgetting_steps_of(b_bytes: bytes, n: int) -> int | None:
    """`_forgetting_steps` keyed by B's bytes: its 2-norm SVD runs once per matrix."""
    c = float(np.linalg.norm(np.frombuffer(b_bytes).reshape(n, n), 2))
    if c >= 1.0:
        return None
    if c == 0.0:
        return 1
    return math.ceil(math.log(FORGET_TOL / math.sqrt(n)) / math.log(c))


class _Drive:
    """The reservoir drive A·u of one input, any row range on demand.

    Row r comes from one product over its block of the `BLOCK_ROWS` grid
    from row 0, whose last block ends at the last input row, whatever range
    asks for it: a product over a block of another shape can round row r
    differently.  A `MuxedInput`'s rows are built a block at a time into
    one scratch block.  Each `fill` makes its own scratch, so it holds
    nothing between reads and ranges can be asked for in any order; a leak
    is applied to the input before it comes here (`_leaked`).
    """

    def __init__(self, u, a: np.ndarray):
        self.u, self._a = u, a

    def fill(self, start: int, stop: int, out: np.ndarray) -> np.ndarray:
        """Drive rows start..stop into ``out``."""
        block = min(BLOCK_ROWS, len(self.u))
        inputs = np.empty((block, self.u.width)) if isinstance(self.u, MuxedInput) else None
        product = None      # for a block that straddles a range's ends
        for s, e in _row_blocks(start - start % BLOCK_ROWS, len(self.u)):
            if s >= stop:
                break
            rows = self.u[s:e] if inputs is None else self.u.fill(s, e, inputs[:e - s])
            lo, hi = max(s, start), min(e, stop)
            if (lo, hi) == (s, e):
                np.matmul(rows, self._a.T, out=out[s - start:e - start])
                continue
            if product is None:
                product = np.empty((block, self._a.shape[0]))
            np.matmul(rows, self._a.T, out=product[:e - s])
            out[lo - start:hi - start] = product[lo - s:hi - s]
        return out


def _step_chunks(chunks: np.ndarray, x: np.ndarray, bt: np.ndarray, w: int,
                 before: np.ndarray | None) -> None:
    """Step the recurrence over G time chunks together, in place.

    ``chunks`` (G, L, n) holds each chunk's drive rows and is left holding
    its states; ``x`` (G, n) holds the start states and is left holding the
    last ones.  Every chunk but the
    first warms up from its start state over the last ``w`` drive rows of
    the chunk before it; so does the first when ``before`` gives those
    rows (w, n), and otherwise it starts from ``x[0]`` as given.  One
    (G, n) @ Bᵀ product per step: its rows round as in the product over
    all K chunks when G >= `MIN_GROUP_CHUNKS`.
    """
    length = chunks.shape[1]
    lead = 0 if before is None else 1
    product = np.empty_like(x)
    # warm-up reads chunk i-1's last w drive rows before the main loop
    # overwrites them with states
    warm = x[1 - lead:]
    pre = product[1 - lead:]
    for i, j in enumerate(range(length - w, length)):
        np.matmul(warm, bt, out=pre)
        pre[lead:] += chunks[:-1, j]
        if lead:
            pre[0] += before[i]
        np.tanh(pre, out=warm)
    # the states step in ``x``, contiguous, and are copied into their rows
    for j in range(length):
        row = chunks[:, j]
        np.matmul(x, bt, out=product)
        product += row
        np.tanh(product, out=x)
        row[...] = x


def _chunk_groups(k: int) -> list[tuple[int, int]]:
    """Chunks 0..k as consecutive groups (first, stop) of `MIN_GROUP_CHUNKS`
    to 2 · `MIN_GROUP_CHUNKS` - 1 chunks; one group when ``k`` is too small
    to split."""
    n = max(1, k // MIN_GROUP_CHUNKS)
    bounds = [k * i // n for i in range(n + 1)]     # sizes differ by at most one
    return list(zip(bounds[:-1], bounds[1:]))


def esn_run(state: EsnState, inputs: MuxedInput | np.ndarray, *,
            _out: np.ndarray | None = None) -> np.ndarray:
    """Drive the reservoir and return the activation trajectory.

    The input is leaked once, up front (`_leaked`), before entering the tanh
    update; ``leak == 0`` recovers the plain update.  Row t of the result is
    the state after consuming input row t; the caller's ``state`` is not
    mutated.

    The input drive A·ũ does not depend on the state, so it is computed
    into the result buffer before stepping (`_Drive`).
    The recurrence is then stepped over K time chunks together, one
    (K, n) @ Bᵀ product per step (`_step_chunks`).  Chunk 0 starts from
    ``state.state``; every later chunk starts from zero W steps before its
    first row, where W is the reservoir's forgetting bound
    (`_forgetting_steps`), so its states agree with a single sequential
    pass to rounding.  K, L and W come from `series.time_chunks`; every
    chunk is longer than W, so each warm-up starts from a tanh output
    (inside the √n bound).

    ``_out`` is a (K·L, n) array to step in; the result is a view of its
    first T rows.
    """
    u = inputs if isinstance(inputs, MuxedInput) else _as_columns(inputs)
    width = u.width if isinstance(u, MuxedInput) else u.shape[1]
    a, b = state.input_weights, state.recurrent_weights
    if width != a.shape[1]:
        raise ValueError(f"input width {width} does not match weights {a.shape[1]}")
    t_len, n = len(u), a.shape[0]
    k, length, w = time_chunks(t_len, _forgetting_steps(b))
    traj = np.empty((k * length, n)) if _out is None else _out
    if traj.shape != (k * length, n):
        raise ValueError(f"output buffer {traj.shape} is not ({k * length}, {n})")
    _Drive(_leaked(u, state.config.leak), a).fill(0, t_len, traj[:t_len])
    traj[t_len:] = 0.0
    x = np.zeros((k, n))
    x[0] = state.state
    _step_chunks(traj.reshape(k, length, n), x, np.ascontiguousarray(b.T), w, None)
    return traj[:t_len]


def assemble_features(architecture: str, states: np.ndarray | None,
                      mux: MuxedInput | np.ndarray) -> np.ndarray:
    """Feature matrix per architecture (bias column is added at training)."""
    blocks = ARCHITECTURES.get(architecture)
    if blocks is None:
        raise ValueError(f"unknown architecture {architecture!r}")
    if blocks.states and states is None:
        raise ValueError(f"architecture {architecture!r} needs reservoir states")
    u = mux.values if isinstance(mux, MuxedInput) else np.asarray(mux, dtype=float)
    parts = [block for block, used in ((states, blocks.states), (u, blocks.mux)) if used]
    return parts[0] if len(parts) == 1 else np.hstack(parts)


def _checked_sensors(sensors, config: ReservoirConfig) -> np.ndarray:
    """The sensors as (T, n_sensors) columns, checked against ``config``."""
    x = _as_columns(sensors)
    if x.shape[1] != config.n_sensors:
        raise ConfigMismatch(
            f"data has {x.shape[1]} sensors but the configuration declares {config.n_sensors}"
        )
    # one NaN input would carry through the recurrence into every later state
    require_finite(x, "sensor input")
    return x


def reservoir_features(
    sensors: np.ndarray,
    config: ReservoirConfig,
    mux_scale: float | None = None,
) -> FeatureStream:
    """The readout features of one recording as a `FeatureStream`, which
    holds the scaled sensors and steps the reservoir on every read."""
    x = _checked_sensors(sensors, config)
    blocks = ARCHITECTURES[config.architecture]
    mux = MuxedInput(x, config.mux_horizon_s, config.mux_stride, config.frame_rate, mux_scale)
    return FeatureStream(mux, esn_init(config) if blocks.states else None, blocks.mux)


class FeatureStream:
    """The [states | mux | 1] rows of one recording, whole or a block at a time.

    It holds a `MuxedInput` (a zero-padded copy of the scaled sensors, and
    with a leak a leaked one for the drive), not the states or the feature
    matrix; ``nbytes`` counts those copies.  `matrix` builds every row in
    one buffer.  `blocks` steps the reservoir anew on each read, a group of
    `esn_run`'s K time chunks at a time (`_chunk_groups`) into one buffer:
    a group's chunks warm up from the chunk before them as `esn_run`'s do,
    and its drive rows come from the same products (`_Drive`), so its
    states are `esn_run`'s bitwise; it copies each block's states and
    builds its mux rows into one buffer.  ``shape`` is the (T, d) of the
    features, whose rows `blocks` and `matrix` give bitwise alike.
    """

    def __init__(self, mux: MuxedInput, state: EsnState | None, reads_mux: bool):
        self._mux = mux
        self._state = state         # None without a reservoir
        self._reads_mux = reads_mux
        self._n_states = 0 if state is None else state.input_weights.shape[0]
        self.shape = (len(mux), self._n_states + (mux.width if reads_mux else 0))
        if state is not None:
            self._drive = _Drive(_leaked(mux, state.config.leak), state.input_weights)

    @property
    def nbytes(self) -> int:
        """The bytes it holds between reads: the padded sensors, and with a
        leak their leaked copy."""
        leaked = self._state is not None and self._drive.u is not self._mux
        return self._mux.padded.nbytes + (self._drive.u.padded.nbytes if leaked else 0)

    def matrix(self) -> np.ndarray:
        """Every row, built in place in one buffer laid out as
        [states | mux | 1] with `esn_run` stepping all K chunks at once; the
        result is its (T, d) left block, which the readout trains on with
        the ones column as its bias without a copy."""
        (t_len, width), n_states, state = self.shape, self._n_states, self._state
        rows = t_len
        if state is not None:
            # esn_run steps K chunks of L rows in place; rows past T are padding
            k, length, _ = time_chunks(t_len, _forgetting_steps(state.recurrent_weights))
            rows = k * length
        buf = np.empty((rows, width + 1))
        buf[:, -1] = 1.0
        # the reservoir reads the built mux columns; without them, or leaked, rows on demand
        mux = self._mux
        drive = mux.fill(0, t_len, buf[:t_len, n_states:width]) if self._reads_mux else mux
        if state is not None:
            esn_run(state, mux if state.config.leak else drive, _out=buf[:, :n_states])
        return buf[:t_len, :width]

    def blocks(self, start: int = 0, stop: int | None = None):
        """(first row, [features | 1] rows) over rows start..stop, `BLOCK_ROWS`
        at a time; each block is a view of one buffer that the next overwrites."""
        stop = self.shape[0] if stop is None else stop
        n_states, width = self._n_states, self.shape[1]
        buf = np.empty((min(BLOCK_ROWS, stop - start), width + 1))
        buf[:, -1] = 1.0
        groups = self._state_groups(start, stop) if n_states else None
        group_first, states = start, buf[:0]
        for first, last in _row_blocks(start, stop):
            block = buf[:last - first]
            row = first
            while groups is not None and row < last:   # a block can span two groups
                if row == group_first + len(states):
                    group_first, states = next(groups)
                take = min(last, group_first + len(states)) - row
                block[row - first:row - first + take, :n_states] = \
                    states[row - group_first:row - group_first + take]
                row += take
            if self._reads_mux:
                self._mux.fill(first, last, block[:, n_states:width])
            yield first, block

    def _state_groups(self, start: int, stop: int):
        """(first row, states) of each chunk group that holds rows of
        start..stop, stepped in turn into one buffer."""
        a, b = self._state.input_weights, self._state.recurrent_weights
        t_len, n = self.shape[0], a.shape[0]
        k, length, w = time_chunks(t_len, _forgetting_steps(b))
        groups = [(g0, g1) for g0, g1 in _chunk_groups(k)
                  if g0 * length < stop and start < g1 * length]
        # rows base..base+w are the warm-up drive of the group's first chunk
        buf = np.empty((w + max(g1 - g0 for g0, g1 in groups) * length, n))
        bt = np.ascontiguousarray(b.T)
        for g0, g1 in groups:
            base, end = g0 * length - w, min(g1 * length, t_len)
            rows = buf[:w + (g1 - g0) * length]
            lo = max(base, 0)
            self._drive.fill(lo, end, rows[lo - base:end - base])
            rows[end - base:] = 0.0
            x = np.zeros((g1 - g0, n))
            if g0 == 0:
                x[0] = self._state.state
            _step_chunks(rows[w:].reshape(g1 - g0, length, n), x, bt, w,
                         rows[:w] if g0 else None)
            yield g0 * length, rows[w:end - base]


# ---------------------------------------------------------------------------
# Linear readout
# ---------------------------------------------------------------------------

def _solve_readout(gram: np.ndarray, moment: np.ndarray) -> np.ndarray:
    """Weights of the normal equations ``gram`` w = ``moment``, with
    `RIDGE_DEFAULT` added to ``gram``'s diagonal in place."""
    gram[np.diag_indices_from(gram)] += RIDGE_DEFAULT
    try:
        w = np.linalg.solve(gram, moment)
    except np.linalg.LinAlgError:
        gram[np.diag_indices_from(gram)] += RIDGE_DEFAULT * 1e3
        try:
            w = np.linalg.solve(gram, moment)
        except np.linalg.LinAlgError as exc:
            raise RankDeficient("readout normal equations are singular") from exc
    if not np.all(np.isfinite(w)):
        raise RankDeficient("readout solve produced non-finite weights")
    return w


@dataclass
class Readout:
    """Trained linear readout over [features, 1], one weight slab per horizon.

    Slab i maps the features at row t to the targets at row t + the i-th
    horizon; horizon 0 s is the plain same-time readout.
    """

    weights: np.ndarray        # (n_horizons, n_features + 1, n_targets)
    horizons_s: tuple[float, ...]
    frame_rate: float
    washout: int
    architecture: str = ""
    target_names: tuple[str, ...] = ()

    @property
    def n_features(self) -> int:
        return self.weights.shape[1] - 1

    @property
    def n_targets(self) -> int:
        return self.weights.shape[2]

    @property
    def horizon_samples(self) -> tuple[int, ...]:
        return tuple(round(h * self.frame_rate) for h in self.horizons_s)

    def at(self, horizon_s: float) -> Readout:
        """The one-horizon readout for a horizon on the trained grid."""
        samples = self.horizon_samples
        h = round(horizon_s * self.frame_rate)
        if h not in samples:
            raise UntrainedHorizon(f"horizon {horizon_s} s is not on the trained grid")
        return self._slab(samples.index(h))

    def _slab(self, i: int) -> Readout:
        return replace(self, weights=self.weights[i:i + 1], horizons_s=(self.horizons_s[i],))

    def predict(self, features: np.ndarray | FeatureStream) -> np.ndarray:
        """One column per (horizon, target), horizon-major.

        A `FeatureStream` is read a block at a time into the one result."""
        f, blocks = self._blocks(features)
        n_h, _, n_t = self.weights.shape
        out = np.empty((f.shape[0], n_h, n_t))
        for start, block in blocks:
            self._predict_rows(block, out[start:start + block.shape[0]])
        return out.reshape(f.shape[0], n_h * n_t)

    def _blocks(self, features):
        """The features and their blocks: a stream's, or a whole matrix as
        one; ConfigMismatch at another width."""
        stream = isinstance(features, FeatureStream)
        f = features if stream else np.asarray(features, dtype=float)
        if f.shape[1] != self.n_features:
            raise ConfigMismatch(f"features have width {f.shape[1]}, "
                                 f"model expects {self.n_features}")
        return f, f.blocks() if stream else [(0, f)]

    def _predict_rows(self, block: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``block``'s predictions into ``out``, laid out as rows of `predict`'s."""
        # one product per horizon, written in place into its columns: a single
        # product over every horizon's columns rounds differently for one target
        by_horizon = out.transpose(1, 0, 2)
        np.matmul(block[:, :self.n_features], self.weights[:, :-1], out=by_horizon)
        by_horizon += self.weights[:, -1:]
        return out


def _fit_readout(features, targets, horizons_s, washout: int, frame_rate: float,
                 architecture: str, target_names) -> Readout:
    """Least-squares readout per horizon over the post-washout samples,
    from the normal equations that `normal_equations` sums in one pass
    (Lukoševičius 2012, §4).  A small ridge (`RIDGE_DEFAULT`) is added to
    them purely for conditioning.  Each horizon needs at least 3x as many
    samples as feature columns (bias included).
    """
    if not isinstance(features, FeatureStream):
        features = np.asarray(features, dtype=float)
    y = _as_columns(targets)
    if features.shape[0] != y.shape[0]:
        raise ValueError("features and targets must share one sample count")
    require_finite(y, "target")
    horizons_s = tuple(float(h) for h in horizons_s)
    if not horizons_s or any(h < 0 for h in horizons_s):
        raise ValueError("need at least one horizon, none negative")
    if washout < 0:
        raise ValueError(f"washout must be >= 0, got {washout}")
    n, d_aug = features.shape[0], features.shape[1] + 1
    model = Readout(
        weights=np.empty((len(horizons_s), d_aug, y.shape[1])),
        horizons_s=horizons_s,
        frame_rate=frame_rate,
        washout=washout,
        architecture=architecture,
        target_names=tuple(target_names),
    )
    shifts = model.horizon_samples
    for h_s, rows in zip(horizons_s, [n - h - washout for h in shifts]):
        if rows < 3 * d_aug:
            raise TooShort(
                f"{rows} post-washout samples for horizon {h_s:g} s and {d_aug} "
                f"features; need at least {3 * d_aug}"
            )
    for w, (gram, moment) in zip(model.weights, normal_equations(features, y, washout, shifts)):
        w[...] = _solve_readout(gram, moment)
    return model


def normal_equations(features, y: np.ndarray, washout: int, shifts):
    """Each shift h's (Gram, moment) of least squares from [features, 1] at
    row t to ``y`` at row t + h, t in washout..n − h: a whole matrix read as
    one block, or a `FeatureStream`'s blocks.  One pass sums G₀ over the
    post-washout rows and each moment over its own rows; shift h's Gram is
    G₀ − F_tailᵀF_tail over the last h rows.  Each Gram is the caller's to
    change in place; the last is G₀ itself, so take them in turn."""
    n, d_aug = features.shape[0], features.shape[1] + 1
    gram = np.zeros((d_aug, d_aug))
    moments = np.zeros((len(shifts), d_aug, y.shape[1]))
    # the last rows, kept as the pass goes by for the shifts' dropped tails
    kept = max(shifts)
    tail = np.empty((kept, d_aug))
    for start, block in _biased_blocks(features, washout, n):
        gram += block.T @ block
        for moment, h in zip(moments, shifts):
            rows = block[:max(n - h - start, 0)]
            moment += rows.T @ y[start + h:start + h + len(rows)]
        lo = max(start, n - kept)
        if lo < start + block.shape[0]:
            tail[lo - n + kept:start + block.shape[0] - n + kept] = block[lo - start:]
    for i, (moment, h) in enumerate(zip(moments, shifts)):
        gram_h = gram if i == len(shifts) - 1 else gram.copy()
        # the dropped rows, in the blocks a stream's read of them gives
        for first, last in _row_blocks(n - h, n):
            rows = tail[first - n + kept:last - n + kept]
            gram_h -= rows.T @ rows
        yield gram_h, moment


def _biased_blocks(features, start: int, stop: int):
    """(first row, [features, 1] rows) over rows start..stop: a stream's
    blocks, or one block of a whole matrix; none when the range is empty."""
    if isinstance(features, FeatureStream):
        yield from features.blocks(start, stop)
    elif stop > start:
        yield start, _with_bias(features, start)[:stop - start]


def _with_bias(features: np.ndarray, start: int) -> np.ndarray:
    """[features, 1] from row ``start`` on.

    A view when ``features`` is the left block of a C-contiguous buffer
    whose last column is ones, as `FeatureStream.matrix` returns; otherwise
    one copy.
    """
    base = features.base
    if (isinstance(base, np.ndarray) and base.ndim == 2 and base.dtype == features.dtype
            and base.flags.c_contiguous and base.shape[1] == features.shape[1] + 1
            and features.strides == base.strides
            and features.__array_interface__["data"][0] == base.__array_interface__["data"][0]
            and np.all(base[:features.shape[0], -1] == 1.0)):
        return base[start:features.shape[0]]
    return np.hstack([features[start:], np.ones((features.shape[0] - start, 1))])


def train_readout(
    features: np.ndarray,
    targets: np.ndarray,
    washout: int,
    architecture: str = "",
) -> Readout:
    """Same-time readout: the 0 s horizon of `train_horizons`."""
    # a 0 s horizon is 0 samples at any frame rate
    return _fit_readout(features, targets, (0.0,), washout, 60.0, architecture, ())


def train_horizons(
    features: np.ndarray | FeatureStream,
    targets: np.ndarray,
    horizons_s,
    washout: int,
    frame_rate: float,
    architecture: str = "",
    target_names: tuple[str, ...] = (),
) -> Readout:
    """One readout slab per horizon, with targets shifted into the future."""
    return _fit_readout(features, targets, horizons_s, washout, frame_rate,
                        architecture, target_names)


def predict_horizons(model: Readout,
                     features: np.ndarray | FeatureStream) -> dict[float, np.ndarray]:
    """Predictions per horizon, (n, n_targets) each; row t estimates the
    targets at t + horizon."""
    out = model.predict(features).reshape(-1, len(model.horizons_s), model.n_targets)
    return {h_s: out[:, i] for i, h_s in enumerate(model.horizons_s)}


def evaluate_horizons(
    model: Readout,
    features: np.ndarray | FeatureStream,
    targets: np.ndarray,
) -> dict[float, float]:
    """Post-washout R-squared per horizon, bitwise `r2` over the columns of
    ``model.predict(features)``, from `predict`'s blocks one at a time: each
    block's squared residuals are added to its horizon's `_row_sums`."""
    f, blocks = model._blocks(features)
    y = _as_columns(targets)
    n, washout = f.shape[0], model.washout
    shifts = model.horizon_samples
    n_h, _, n_t = model.weights.shape
    if y.shape != (n, n_t):
        raise ValueError(f"shape mismatch {(n, n_t)} vs {y.shape}")
    sst = [_sum_of_squares(y[washout + h:]) for h in shifts]
    sse = np.zeros((n_h, n_t))
    rows = min(BLOCK_ROWS, n) if isinstance(f, FeatureStream) else n
    predictions = np.empty((rows, n_h, n_t))
    for start, block in blocks:
        p = model._predict_rows(block, predictions[:block.shape[0]])
        for i, h in enumerate(shifts):
            lo, hi = max(start, washout), min(start + block.shape[0], n - h)
            if lo < hi:
                sse[i] = _row_sums((p[lo - start:hi - start, i] - y[lo + h:hi + h]) ** 2, sse[i])
    return {h_s: _r2_of(e, t) for h_s, e, t in zip(model.horizons_s, sse, sst)}


def r2(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Coefficient of determination; multi-channel scores are averaged."""
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.shape != a.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {a.shape}")
    if p.ndim == 1:
        p, a = p[:, None], a[:, None]
    sst = _sum_of_squares(a)
    return _r2_of(_row_sums((p - a) ** 2), sst)


def _row_sums(rows: np.ndarray, total: np.ndarray | None = None) -> np.ndarray:
    """Per column, ``total`` (zero by default) plus ``rows`` added one row
    after another, in `np.add.accumulate`'s order, a `BLOCK_ROWS` block at
    a time: a sum carried over consecutive pieces of an array is bitwise its
    sum whole, whatever its column count or memory layout."""
    acc = np.zeros(rows.shape[1]) if total is None else total
    scratch = np.empty((min(BLOCK_ROWS, rows.shape[0]) + 1, rows.shape[1]))
    for first, last in _row_blocks(0, rows.shape[0]):
        part = scratch[:last - first + 1]
        part[0] = acc
        part[1:] = rows[first:last]
        acc = np.add.accumulate(part, axis=0, out=part)[-1]
    return acc


def _sum_of_squares(actual: np.ndarray) -> np.ndarray:
    """Per column, the squared deviations from its mean, summed; raises
    for fewer than 2 rows or a constant column, which `r2` cannot score."""
    if actual.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    sst = _row_sums((actual - _row_sums(actual) / actual.shape[0]) ** 2)
    if np.any(sst == 0):
        raise ConstantTarget("R-squared is undefined for a constant channel")
    return sst


def _r2_of(sse: np.ndarray, sst: np.ndarray) -> float:
    return float(np.mean(1.0 - sse / sst))


@dataclass
class CrossPrediction:
    names: list[str]
    matrix: np.ndarray   # [train, eval]


def cross_predict(datasets: dict, washout: int) -> CrossPrediction:
    """Train on each dataset and score every dataset with every model.

    ``datasets`` maps a label to a ``(features, targets)`` pair built with
    one shared sensor configuration and mux; mismatched widths raise
    ConfigMismatch.  A `FeatureStream` is built whole (`matrix`) for the
    call, so every dataset's matrix is held only while it runs.  Entry
    [i, j] is the R-squared of model i on data j, so the diagonal holds the
    self-evaluation scores.  Every model predicts data j in turn and one
    `_row_sums` adds all their squared residuals, so entry [i, j] is
    bitwise `r2` of model i's predictions.
    """
    names = list(datasets)
    pairs = []
    for name in names:
        f, y = datasets[name]
        f = f.matrix() if isinstance(f, FeatureStream) else np.asarray(f, dtype=float)
        pairs.append((f, _as_columns(y)))
    width = pairs[0][0].shape[1]
    n_targets = pairs[0][1].shape[1]
    for (f, y), name in zip(pairs, names):
        if f.shape[1] != width or y.shape[1] != n_targets:
            raise ConfigMismatch(f"dataset {name!r} does not match the shared layout")

    models = [train_readout(f, y, washout) for f, y in pairs]
    matrix = np.empty((len(names), len(names)))
    for j, (f_j, y_j) in enumerate(pairs):
        actual = y_j[washout:]
        sst = _sum_of_squares(actual)
        residuals = np.empty((actual.shape[0], len(models), n_targets))
        for model, r in zip(models, residuals.transpose(1, 0, 2)):
            np.subtract(model.predict(f_j[washout:]), actual, out=r)
        residuals **= 2
        sse = _row_sums(residuals.reshape(actual.shape[0], -1)).reshape(len(models), n_targets)
        matrix[:, j] = [_r2_of(e, sst) for e in sse]
    return CrossPrediction(names=names, matrix=matrix)


# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------

@dataclass
class TargetSeries:
    """Named prediction targets for one trial."""

    names: tuple[str, ...]
    values: np.ndarray


def detect_pulse_onsets(series: np.ndarray, frame_rate: float) -> np.ndarray:
    """Upward crossings of `series.default_threshold`, used for pulse
    resets; a crossing within ``PULSE_REFRACTORY_S`` of the last kept one
    is skipped."""
    x = np.asarray(series, dtype=float)
    starts, _ = runs(x > default_threshold(x))
    rising = starts[starts > 0]
    keep = []
    gap = PULSE_REFRACTORY_S * frame_rate
    for idx in rising:
        if not keep or idx - keep[-1] >= gap:
            keep.append(int(idx))
    return np.array(keep, dtype=int)


def _segment_anchors(n: int, onsets: np.ndarray) -> np.ndarray:
    resets = np.unique(np.concatenate(([0], np.asarray(onsets, dtype=int))))
    anchor = np.zeros(n, dtype=int)
    anchor[resets[resets < n]] = 1
    anchor[0] = 1
    idx = np.flatnonzero(anchor)
    return idx[np.searchsorted(idx, np.arange(n), side="right") - 1]


def dead_reckon_positions(
    v_local: np.ndarray, onset_indices: np.ndarray, frame_rate: float
) -> np.ndarray:
    """Integrate local velocity into displacement, reset to 0 at each onset."""
    v = _as_columns(v_local)
    n = v.shape[0]
    cum = np.vstack([np.zeros((1, v.shape[1])), np.cumsum(v[:-1], axis=0) / frame_rate])
    anchors = _segment_anchors(n, onset_indices)
    return cum - cum[anchors]


def rezero_at_onsets(series: np.ndarray, onset_indices: np.ndarray) -> np.ndarray:
    """Subtract each sample's most recent onset value (relative pose)."""
    x = _as_columns(series)
    anchors = _segment_anchors(x.shape[0], onset_indices)
    return x - x[anchors]


def build_targets(
    v_local: np.ndarray,
    frame_rate: float,
    onset_indices: np.ndarray | None = None,
    euler: np.ndarray | None = None,
    pulsatile: bool = False,
    velocity_names: tuple[str, ...] | None = None,
) -> TargetSeries:
    """Assemble prediction targets from local velocities (and pose).

    Aggregate targets are the velocities alone.  Pulsatile targets add
    dead-reckoned displacements (and relative rotations when ``euler`` is
    given), each reset to zero at every pulse onset.
    """
    v = _as_columns(v_local)
    if velocity_names is None:
        velocity_names = tuple(("vx", "vy", "vz")[: v.shape[1]])
    if len(velocity_names) != v.shape[1]:
        raise ValueError("velocity_names length does not match the channel count")
    names = list(velocity_names)
    blocks = [v]
    if pulsatile:
        if onset_indices is None:
            raise ValueError("pulsatile targets need pulse onsets")
        blocks.append(dead_reckon_positions(v, onset_indices, frame_rate))
        names += [f"p{n[1:] or n}" for n in velocity_names]
        if euler is not None:
            blocks.append(rezero_at_onsets(euler, onset_indices))
            names += ["ea", "eb", "eg"][: np.atleast_2d(euler).shape[-1]]
    return TargetSeries(names=tuple(names), values=np.hstack(blocks))


# ---------------------------------------------------------------------------
# Compact export
# ---------------------------------------------------------------------------

@dataclass
class CompactModel:
    """Float32 weights unpacked from a compact blob."""

    architecture: str
    n_nodes: int
    input_width: int
    n_outputs: int
    leak: float
    input_weights: np.ndarray
    recurrent_weights: np.ndarray
    readout_weights: np.ndarray

    @property
    def n_features(self) -> int:
        return _feature_width(self.architecture, self.n_nodes, self.input_width)


def _feature_width(architecture: str, n_nodes: int, input_width: int) -> int:
    """Readout feature count per architecture (bias excluded)."""
    blocks = ARCHITECTURES[architecture]
    return n_nodes * blocks.states + input_width * blocks.mux


def export_compact(
    model: Readout,
    config: ReservoirConfig,
    state: EsnState | None = None,
) -> bytes:
    """Serialize a trained readout (plus reservoir weights) to a flat blob.

    Little-endian layout: magic, architecture byte, three u32 dims
    (nodes, input width, outputs), spectral radius and leak as f32, then
    the input, recurrent and readout weights as f32 in row-major order.
    The outputs are the columns of ``model.predict``: output j is horizon
    j // n_targets, target j % n_targets.  The reservoir weights are
    ``state``'s, or `esn_init(config)`'s; a model without states has 0 nodes.
    """
    blocks = ARCHITECTURES[config.architecture]
    if blocks.states:
        state = esn_init(config) if state is None else state
        a, b = state.input_weights, state.recurrent_weights
    else:
        a = b = np.empty((0, 0))
    n_nodes, width = a.shape[0], config.input_width
    expected = _feature_width(config.architecture, n_nodes, width)
    if model.n_features != expected:
        raise ConfigMismatch(
            f"model has {model.n_features} features, configuration implies {expected}"
        )
    n_h, d_aug, n_t = model.weights.shape
    readout = model.weights.transpose(1, 0, 2).reshape(d_aug, n_h * n_t)
    header = _BLOB_HEADER.pack(
        _BLOB_MAGIC,
        blocks.code,
        n_nodes,
        width,
        n_h * n_t,
        config.spectral_radius,
        config.leak,
    )
    payload = b"".join(
        arr.astype("<f4").tobytes() for arr in (a, b, readout)
    )
    return header + payload


def load_compact(blob: bytes) -> CompactModel:
    """Parse and validate a compact blob."""
    if len(blob) < _BLOB_HEADER.size:
        raise BlobCorrupt("blob shorter than its header")
    # the spectral radius in the header is not needed to run the blob
    magic, arch_code, n_nodes, width, n_out, _, leak = _BLOB_HEADER.unpack_from(blob)
    if magic != _BLOB_MAGIC:
        raise BlobCorrupt(f"bad magic {magic!r}")
    arch = next((name for name, e in ARCHITECTURES.items() if e.code == arch_code), None)
    if arch is None:
        raise BlobCorrupt(f"unknown architecture code {arch_code}")
    n_features = _feature_width(arch, n_nodes, width)
    n_a = n_nodes * width
    n_b = n_nodes * n_nodes
    n_w = (n_features + 1) * n_out
    expected = _BLOB_HEADER.size + 4 * (n_a + n_b + n_w)
    if len(blob) != expected:
        raise BlobCorrupt(f"blob is {len(blob)} bytes, dims imply {expected}")
    flat = np.frombuffer(blob, dtype="<f4", offset=_BLOB_HEADER.size)
    return CompactModel(
        architecture=arch,
        n_nodes=n_nodes,
        input_width=width,
        n_outputs=n_out,
        leak=float(leak),
        input_weights=flat[:n_a].reshape(n_nodes, width).copy(),
        recurrent_weights=flat[n_a:n_a + n_b].reshape(n_nodes, n_nodes).copy(),
        readout_weights=flat[n_a + n_b:].reshape(n_features + 1, n_out).copy(),
    )


class CompactEvaluator:
    """Single-step float32 inference with fixed preallocated buffers.

    All working arrays are allocated in ``__init__``; ``step`` performs one
    reservoir update plus readout without allocating.  The declared
    working set is the total byte size of weights and buffers.
    """

    def __init__(self, model: CompactModel):
        self.model = model
        f4 = np.float32
        self._a = np.ascontiguousarray(model.input_weights, dtype=f4)
        self._b = np.ascontiguousarray(model.recurrent_weights, dtype=f4)
        self._w = np.ascontiguousarray(model.readout_weights, dtype=f4)
        self._leak = f4(model.leak)
        self._one_minus_leak = f4(1.0 - model.leak)
        w = model.input_width
        n = model.n_nodes
        self._u_tilde = np.zeros(w, dtype=f4)
        self._u_tmp = np.zeros(w, dtype=f4)
        self._x = np.zeros(n, dtype=f4)
        self._pre = np.zeros(n, dtype=f4)
        self._pre2 = np.zeros(n, dtype=f4)
        self._features = np.zeros(model.n_features + 1, dtype=f4)
        self._features[-1] = 1.0
        # the feature blocks; a model without reservoir states has zero nodes
        self._states = self._features[:n]
        self._mux = self._features[n:-1] if ARCHITECTURES[model.architecture].mux else None
        self._out = np.zeros(model.n_outputs, dtype=f4)

    @property
    def working_set_bytes(self) -> int:
        arrays = (
            self._a, self._b, self._w,
            self._u_tilde, self._u_tmp, self._x, self._pre, self._pre2,
            self._features, self._out,
        )
        return int(sum(arr.nbytes for arr in arrays))

    def step(self, u: np.ndarray) -> np.ndarray:
        """Consume one muxed input row; returns a view of the output buffer."""
        if self.model.leak == 0.0:
            np.copyto(self._u_tilde, u)
        else:
            self._u_tilde *= self._leak
            np.multiply(u, self._one_minus_leak, out=self._u_tmp, casting="unsafe")
            self._u_tilde += self._u_tmp
        if self._x.size:    # zero for a model without reservoir states
            np.matmul(self._a, self._u_tilde, out=self._pre)
            np.matmul(self._b, self._x, out=self._pre2)
            self._pre += self._pre2
            np.tanh(self._pre, out=self._x)
            self._states[...] = self._x
        if self._mux is not None:
            np.copyto(self._mux, u, casting="unsafe")
        np.matmul(self._features, self._w, out=self._out)
        return self._out

    def run(self, inputs: np.ndarray) -> np.ndarray:
        """Evaluate a whole input stream into one float32 array."""
        u = np.asarray(inputs)
        out = np.empty((u.shape[0], self.model.n_outputs), dtype=np.float32)
        for t in range(u.shape[0]):
            out[t] = self.step(u[t])
        return out
