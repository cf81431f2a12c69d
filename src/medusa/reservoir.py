"""Reservoir-computing prediction: ESN, direct sensor readout, and hybrid.

Three architectures share one linear readout recipe:

* ``esn``    : readout over echo-state-network activations,
* ``prc``    : readout directly over the (multiplexed) sensor inputs,
* ``hybrid`` : readout over both, concatenated.

Temporal multiplexing (`build_mux`) augments each sensor with strided
lagged copies of its recent history and rescales the block so the largest
possible summed input magnitude is 1.  Readouts are trained by least
squares on the post-washout samples, optionally against targets shifted
into the future on a horizon grid.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

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

ARCHITECTURES = ("esn", "prc", "hybrid")
_ARCH_CODES = {"prc": 0, "esn": 1, "hybrid": 2}
_ARCH_NAMES = {v: k for k, v in _ARCH_CODES.items()}

DEFAULT_SPECTRAL_RADIUS = 0.35
RIDGE_DEFAULT = 1e-8
AGGREGATE_WASHOUT_SAMPLES = 10_000
PULSATILE_WASHOUT_SAMPLES = 1_000

_BLOB_MAGIC = b"MDS1"
_BLOB_HEADER = struct.Struct("<4sBIIIff")
_FORGET_TOL = 1e-17


@dataclass
class ReservoirConfig:
    """Topology and run parameters shared by all architectures."""

    n_nodes: int = 100
    spectral_radius: float = DEFAULT_SPECTRAL_RADIUS
    input_scale: float = 1.0
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
        if self.architecture != "prc" and self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1 for esn/hybrid")
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
        raise ValueError("mux span must be divisible by mux_stride")
    return span_samples // stride + 1


@dataclass
class MuxedInput:
    """Sensor histories concatenated per sensor, globally rescaled."""

    values: np.ndarray     # (n_samples, n_sensors * n_lags)
    scale: float
    n_sensors: int
    n_lags: int
    stride: int

    @property
    def width(self) -> int:
        return self.values.shape[1]


def build_mux(
    sensors: np.ndarray,
    mux_horizon_s: float,
    stride: int,
    frame_rate: float,
    scale: float | None = None,
) -> MuxedInput:
    """Stack strided lagged copies of each sensor and bound the summed input.

    Column layout is sensor-major: all lags of sensor 0 (current sample
    first), then all lags of sensor 1, and so on.  History before the
    series start is zero (the sensors are standardized, so zero is the
    mean).  The whole block is scaled by one scalar so that
    max_T |sum_components U(T)| equals 1; pass ``scale`` explicitly to
    share one factor across several datasets (see `shared_mux_scale`).
    """
    x = np.asarray(sensors, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n, n_sensors = x.shape
    n_lags = _mux_lags(mux_horizon_s, stride, frame_rate)
    span_samples = (n_lags - 1) * stride
    if n <= span_samples:
        raise TooShort(f"need more than {span_samples} samples, got {n}")

    raw = np.zeros((n, n_sensors * n_lags))
    for s in range(n_sensors):
        for lag in range(n_lags):
            shift = lag * stride
            col = s * n_lags + lag
            raw[shift:, col] = x[: n - shift, s]
    if scale is None:
        peak = float(np.abs(raw.sum(axis=1)).max())
        scale = 1.0 / peak if peak > 0 else 1.0
    return MuxedInput(
        values=raw * scale,
        scale=scale,
        n_sensors=n_sensors,
        n_lags=n_lags,
        stride=stride,
    )


def shared_mux_scale(
    sensor_sets,
    mux_horizon_s: float,
    stride: int,
    frame_rate: float,
) -> float:
    """One mux scale valid for several datasets jointly.

    The factor is 1 over the largest summed-input magnitude across all the
    sets, so the |sum U(T)| <= 1 bound holds on every one of them while
    models trained on one set stay applicable to the others.
    """
    peak = 0.0
    for sensors in sensor_sets:
        mux = build_mux(sensors, mux_horizon_s, stride, frame_rate, scale=1.0)
        peak = max(peak, float(np.abs(mux.values.sum(axis=1)).max()))
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
    """
    if config.architecture == "prc":
        raise ValueError("a pure sensor readout has no reservoir to initialize")
    n = config.n_nodes
    width = config.input_width
    a = np.empty((n, width))
    for s in range(config.n_sensors):
        for lag in range(config.n_lags):
            rng = _substream(config.seed, 1, s, lag)
            a[:, s * config.n_lags + lag] = rng.uniform(-0.5, 0.5, n)
    a *= config.input_scale

    for attempt in range(5):
        rng = _substream(config.seed, 2, attempt)
        b = rng.uniform(-0.5, 0.5, (n, n))
        rho = spectral_radius(b)
        if rho > 1e-12:
            b *= config.spectral_radius / rho
            return EsnState(
                input_weights=a,
                recurrent_weights=b,
                state=np.zeros(n),
                config=config,
            )
    raise SeedCollapse("recurrent draws repeatedly yielded zero spectral radius")


def leaky_integrate(inputs: np.ndarray, leak: float) -> np.ndarray:
    """First-order low-pass: out[t] = leak*out[t-1] + (1-leak)*in[t]."""
    x = np.asarray(inputs, dtype=float)
    if leak == 0.0:
        return x.copy()
    out = np.empty_like(x)
    acc = np.zeros(x.shape[1:]) if x.ndim > 1 else 0.0
    for t in range(x.shape[0]):
        acc = leak * acc + (1.0 - leak) * x[t]
        out[t] = acc
    return out


def _forgetting_steps(recurrent_weights: np.ndarray) -> int | None:
    """Steps after which the start state no longer shows in a float64 state.

    With c = σ_max(B) < 1, two runs on one input that start from different
    states in [-1, 1]^n differ after k steps by at most c^k·√n (tanh is
    1-Lipschitz).  Returns the smallest k with c^k·√n <= 1e-17, below half
    an ulp of a state, or None when c >= 1 gives no bound.
    """
    c = float(np.linalg.norm(recurrent_weights, 2))
    if c >= 1.0:
        return None
    if c == 0.0:
        return 1
    n = recurrent_weights.shape[0]
    return math.ceil(math.log(_FORGET_TOL / math.sqrt(n)) / math.log(c))


def esn_run(state: EsnState, inputs: MuxedInput | np.ndarray) -> np.ndarray:
    """Drive the reservoir and return the activation trajectory.

    The input is pre-integrated with the configured leak before entering
    the tanh update; ``leak == 0`` recovers the plain update.  Row t of the
    result is the state after consuming input row t; the caller's ``state``
    is not mutated.

    The input drive A·ũ does not depend on the state, so it is computed
    for every step at once (one matrix product into the result buffer).
    The recurrence is then stepped over K time chunks together, one
    (K, n) @ Bᵀ product per step.  Chunk 0 starts from ``state.state``;
    every later chunk starts from zero W steps before its first row, where
    W is the reservoir's forgetting bound (`_forgetting_steps`), so its
    states agree with a single sequential pass to rounding.  Without a
    bound, or on fewer than 4W rows, K is 1 and there is no warm-up.
    """
    u = inputs.values if isinstance(inputs, MuxedInput) else np.asarray(inputs, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    a, b = state.input_weights, state.recurrent_weights
    if u.shape[1] != a.shape[1]:
        raise ValueError(f"input width {u.shape[1]} does not match weights {a.shape[1]}")
    if state.config.leak != 0.0:
        u = leaky_integrate(u, state.config.leak)
    t_len, n = u.shape[0], a.shape[0]
    w = _forgetting_steps(b)
    if w is None or t_len < 4 * w:
        k, w = 1, 0
    else:
        # (t_len - 1) // w keeps every chunk longer than w, so each warm-up
        # starts from a tanh output (inside the √n bound), never before row 0
        k = min((t_len - 1) // w, round(2.0 * math.sqrt(t_len / w)))
    length = -(-t_len // k)
    traj = np.empty((k * length, n))
    np.matmul(u, a.T, out=traj[:t_len])
    traj[t_len:] = 0.0
    chunks = traj.reshape(k, length, n)
    bt = np.ascontiguousarray(b.T)
    x = np.zeros((k, n))
    x[0] = state.state
    # warm-up reads chunk i-1's last w drive rows before the main loop
    # overwrites them with states
    warm = x[1:]
    for j in range(length - w, length):
        pre = warm @ bt
        pre += chunks[:-1, j]
        np.tanh(pre, out=warm)
    for j in range(length):
        row = chunks[:, j]
        row += x @ bt
        np.tanh(row, out=row)
        x = row
    return traj[:t_len]


def assemble_features(architecture: str, states: np.ndarray | None,
                      mux: MuxedInput | np.ndarray) -> np.ndarray:
    """Feature matrix per architecture (bias column is added at training)."""
    u = mux.values if isinstance(mux, MuxedInput) else np.asarray(mux, dtype=float)
    if architecture == "prc":
        return u
    if states is None:
        raise ValueError(f"architecture {architecture!r} needs reservoir states")
    if architecture == "esn":
        return states
    if architecture == "hybrid":
        return np.hstack([states, u])
    raise ValueError(f"unknown architecture {architecture!r}")


def reservoir_features(
    sensors: np.ndarray,
    config: ReservoirConfig,
    mux_scale: float | None = None,
) -> np.ndarray:
    """Build mux, run the reservoir if needed, and assemble readout features."""
    x = np.asarray(sensors, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[1] != config.n_sensors:
        raise ConfigMismatch(
            f"data has {x.shape[1]} sensors but the configuration declares {config.n_sensors}"
        )
    # one NaN input would carry through the recurrence into every later state
    require_finite(x, "sensor input")
    mux = build_mux(x, config.mux_horizon_s, config.mux_stride, config.frame_rate,
                    scale=mux_scale)
    if config.architecture == "prc":
        return assemble_features("prc", None, mux)
    states = esn_run(esn_init(config), mux)
    return assemble_features(config.architecture, states, mux)


# ---------------------------------------------------------------------------
# Linear readout
# ---------------------------------------------------------------------------

def _solve_readout(f_aug: np.ndarray, y: np.ndarray) -> np.ndarray:
    gram = f_aug.T @ f_aug
    gram[np.diag_indices_from(gram)] += RIDGE_DEFAULT
    moment = f_aug.T @ y
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
        i = samples.index(h)
        return replace(self, weights=self.weights[i:i + 1], horizons_s=(self.horizons_s[i],))

    def predict(self, features: np.ndarray) -> np.ndarray:
        """One column per (horizon, target), horizon-major; 1-D for one column."""
        f = np.asarray(features, dtype=float)
        if f.shape[1] != self.n_features:
            raise ConfigMismatch(
                f"features have width {f.shape[1]}, model expects {self.n_features}"
            )
        n_h, _, n_t = self.weights.shape
        out = np.empty((f.shape[0], n_h, n_t))
        # one product per horizon, written in place into its columns: a single
        # product over every horizon's columns rounds differently for one target
        by_horizon = out.transpose(1, 0, 2)
        np.matmul(f, self.weights[:, :-1], out=by_horizon)
        by_horizon += self.weights[:, -1:]
        out = out.reshape(f.shape[0], n_h * n_t)
        return out[:, 0] if n_h * n_t == 1 else out


def _fit_readout(features, targets, horizons_s, washout: int, frame_rate: float,
                 architecture: str, target_names) -> Readout:
    """Least-squares readout per horizon over the post-washout samples.

    A small ridge (`RIDGE_DEFAULT`) is added to the normal equations purely
    for conditioning.  Each horizon needs at least 3x as many samples as
    feature columns (bias included).
    """
    f = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if f.shape[0] != y.shape[0]:
        raise ValueError("features and targets must share one sample count")
    require_finite(y, "target")
    horizons_s = tuple(float(h) for h in horizons_s)
    if not horizons_s or any(h < 0 for h in horizons_s):
        raise ValueError("need at least one horizon, none negative")
    n, d_aug = f.shape[0], f.shape[1] + 1
    model = Readout(
        weights=np.empty((len(horizons_s), d_aug, y.shape[1])),
        horizons_s=horizons_s,
        frame_rate=frame_rate,
        washout=washout,
        architecture=architecture,
        target_names=tuple(target_names),
    )
    for w, h_s, h in zip(model.weights, horizons_s, model.horizon_samples):
        n_rows = n - h - washout
        if n_rows < 3 * d_aug:
            raise TooShort(
                f"{n_rows} post-washout samples for horizon {h_s:g} s and {d_aug} "
                f"features; need at least {3 * d_aug}"
            )
        f_aug = np.hstack([f[washout:n - h], np.ones((n_rows, 1))])
        w[...] = _solve_readout(f_aug, y[washout + h:])
    return model


def train_readout(
    features: np.ndarray,
    targets: np.ndarray,
    washout: int,
    architecture: str = "",
    target_names: tuple[str, ...] = (),
) -> Readout:
    """Same-time readout: the 0 s horizon of `train_horizons`."""
    # a 0 s horizon is 0 samples at any frame rate
    return _fit_readout(features, targets, (0.0,), washout, 60.0, architecture, target_names)


def train_horizons(
    features: np.ndarray,
    targets: np.ndarray,
    horizons_s,
    washout: int,
    frame_rate: float = 60.0,
    architecture: str = "",
    target_names: tuple[str, ...] = (),
) -> Readout:
    """One readout slab per horizon, with targets shifted into the future."""
    return _fit_readout(features, targets, horizons_s, washout, frame_rate,
                        architecture, target_names)


def predict_horizons(model: Readout, features: np.ndarray) -> dict[float, np.ndarray]:
    """Predictions per horizon; row t estimates the target at t + horizon."""
    out = model.predict(features).reshape(-1, len(model.horizons_s), model.n_targets)
    if model.n_targets == 1:
        out = out[:, :, 0]
    return {h_s: out[:, i] for i, h_s in enumerate(model.horizons_s)}


def evaluate_horizons(
    model: Readout,
    features: np.ndarray,
    targets: np.ndarray,
) -> dict[float, float]:
    """Post-washout R-squared per horizon on a feature/target stream."""
    y = np.asarray(targets, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    predictions = predict_horizons(model, features)
    scores = {}
    for h_s, h in zip(model.horizons_s, model.horizon_samples):
        pred = predictions[h_s]
        p = pred if pred.ndim > 1 else pred[:, None]
        stop = p.shape[0] - h
        scores[h_s] = r2(p[model.washout:stop], y[model.washout + h:])
    return scores


def r2(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Coefficient of determination; multi-channel scores are averaged."""
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.shape != a.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {a.shape}")
    if p.ndim == 1:
        p, a = p[:, None], a[:, None]
    if a.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    sst = np.sum((a - a.mean(axis=0)) ** 2, axis=0)
    if np.any(sst == 0):
        raise ConstantTarget("R-squared is undefined for a constant channel")
    sse = np.sum((p - a) ** 2, axis=0)
    return float(np.mean(1.0 - sse / sst))


@dataclass
class CrossPrediction:
    names: list[str]
    matrix: np.ndarray   # [train, eval]


def cross_predict(datasets: dict, washout: int) -> CrossPrediction:
    """Train on each dataset and score every dataset with every model.

    ``datasets`` maps a label to a ``(features, targets)`` pair built with
    one shared sensor configuration and mux; mismatched widths raise
    ConfigMismatch.  Entry [i, j] is the R-squared of model i on data j,
    so the diagonal holds the self-evaluation scores.
    """
    names = list(datasets)
    pairs = []
    for name in names:
        f, y = datasets[name]
        f = np.asarray(f, dtype=float)
        y = np.asarray(y, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        pairs.append((f, y))
    width = pairs[0][0].shape[1]
    n_targets = pairs[0][1].shape[1]
    for (f, y), name in zip(pairs, names):
        if f.shape[1] != width or y.shape[1] != n_targets:
            raise ConfigMismatch(f"dataset {name!r} does not match the shared layout")

    matrix = np.empty((len(names), len(names)))
    for i, (f_i, y_i) in enumerate(pairs):
        model = train_readout(f_i, y_i, washout)
        for j, (f_j, y_j) in enumerate(pairs):
            pred = model.predict(f_j[washout:])
            if pred.ndim == 1:
                pred = pred[:, None]
            matrix[i, j] = r2(pred, y_j[washout:])
    return CrossPrediction(names=names, matrix=matrix)


# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------

@dataclass
class TargetSeries:
    """Named prediction targets for one trial."""

    names: tuple[str, ...]
    values: np.ndarray
    kind: str   # 'aggregate' or 'pulsatile'


def detect_pulse_onsets(
    series: np.ndarray,
    frame_rate: float = 60.0,
    threshold: float | None = None,
    refractory_s: float = 0.5,
) -> np.ndarray:
    """Upward-crossing indices with a refractory period, for pulse resets."""
    x = np.asarray(series, dtype=float)
    if threshold is None:
        threshold = float(x.mean() + 0.5 * x.std())
    above = x > threshold
    rising = np.flatnonzero(above[1:] & ~above[:-1]) + 1
    keep = []
    gap = refractory_s * frame_rate
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
    v = np.asarray(v_local, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    n = v.shape[0]
    cum = np.vstack([np.zeros((1, v.shape[1])), np.cumsum(v[:-1], axis=0) / frame_rate])
    anchors = _segment_anchors(n, onset_indices)
    return cum - cum[anchors]


def rezero_at_onsets(series: np.ndarray, onset_indices: np.ndarray) -> np.ndarray:
    """Subtract each sample's most recent onset value (relative pose)."""
    x = np.asarray(series, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
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
    v = np.asarray(v_local, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
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
    return TargetSeries(
        names=tuple(names),
        values=np.hstack(blocks),
        kind="pulsatile" if pulsatile else "aggregate",
    )


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
    spectral_radius: float
    leak: float
    input_weights: np.ndarray
    recurrent_weights: np.ndarray
    readout_weights: np.ndarray

    @property
    def n_features(self) -> int:
        return _feature_width(self.architecture, self.n_nodes, self.input_width)


def _feature_width(architecture: str, n_nodes: int, input_width: int) -> int:
    """Readout feature count per architecture (bias excluded)."""
    return {"prc": input_width, "esn": n_nodes, "hybrid": n_nodes + input_width}[architecture]


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
    j // n_targets, target j % n_targets.
    """
    arch = config.architecture
    width = config.input_width
    if arch == "prc":
        a = np.empty((0, 0))
        b = np.empty((0, 0))
        n_nodes = 0
    else:
        if state is None:
            raise ValueError("esn/hybrid export needs the reservoir state")
        a, b = state.input_weights, state.recurrent_weights
        n_nodes = config.n_nodes
    expected = _feature_width(arch, n_nodes, width)
    if model.n_features != expected:
        raise ConfigMismatch(
            f"model has {model.n_features} features, configuration implies {expected}"
        )
    n_h, d_aug, n_t = model.weights.shape
    readout = model.weights.transpose(1, 0, 2).reshape(d_aug, n_h * n_t)
    header = _BLOB_HEADER.pack(
        _BLOB_MAGIC,
        _ARCH_CODES[arch],
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
    magic, arch_code, n_nodes, width, n_out, rho, leak = _BLOB_HEADER.unpack_from(blob)
    if magic != _BLOB_MAGIC:
        raise BlobCorrupt(f"bad magic {magic!r}")
    if arch_code not in _ARCH_NAMES:
        raise BlobCorrupt(f"unknown architecture code {arch_code}")
    arch = _ARCH_NAMES[arch_code]
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
        spectral_radius=float(rho),
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
        m = self.model
        if m.leak == 0.0:
            np.copyto(self._u_tilde, u)
        else:
            self._u_tilde *= self._leak
            np.multiply(u, self._one_minus_leak, out=self._u_tmp, casting="unsafe")
            self._u_tilde += self._u_tmp
        if m.architecture != "prc":
            np.matmul(self._a, self._u_tilde, out=self._pre)
            np.matmul(self._b, self._x, out=self._pre2)
            self._pre += self._pre2
            np.tanh(self._pre, out=self._x)
        if m.architecture == "prc":
            np.copyto(self._features[: m.input_width], u, casting="unsafe")
        elif m.architecture == "esn":
            self._features[: m.n_nodes] = self._x
        else:
            self._features[: m.n_nodes] = self._x
            np.copyto(self._features[m.n_nodes:-1], u, casting="unsafe")
        np.matmul(self._features, self._w, out=self._out)
        return self._out

    def run(self, inputs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Evaluate a whole input stream; ``out`` is allocated once if absent."""
        u = np.asarray(inputs)
        if out is None:
            out = np.empty((u.shape[0], self.model.n_outputs), dtype=np.float32)
        for t in range(u.shape[0]):
            out[t] = self.step(u[t])
        return out
