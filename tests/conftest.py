import numpy as np
from hypothesis import settings

from aersnn.event_engine import EventEngine, packet_array
from aersnn.numerics import NumericSpec
from aersnn.topology import LifParams, StdpParams, TopologyParams, TraceParams, build_network

# one profile for every test: no per-example deadline, as timings vary from
# host to host, and examples drawn from a hash of each test, so every run
# draws the same ones
settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")

DEFAULT_LIF = LifParams(v_rest=0.0, v_thresh=1.0, tau_v=100.0, dt=1.0)
DEFAULT_TRACE = TraceParams(tau_x=20.0, alpha=1.0, x_max=10.0, dt=1.0)
DEFAULT_STDP = StdpParams(alpha_pre=0.01, alpha_post=0.005, w_min=0.0, w_max=1.0)
# leak rates of 1e-300: one leak step changes no voltage or trace of order 1,
# so a whole step run by the engine shows what integrate and fire did
STILL_LIF = LifParams(v_rest=0.0, v_thresh=1.0, tau_v=1e300, dt=1.0)
STILL_TRACE = TraceParams(tau_x=1e300, alpha=1.0, x_max=10.0, dt=1.0)

# Fired sets of a 10-neuron layer. One range of consecutive ids is
# potentiated through a column slice; the sets with gaps go through one
# gather and scatter, and must reach no column inside a gap.
GAPPED_FIRED_SETS = [(0, 1, 2, 3, 6, 7, 8, 9), (3, 4, 5), (0, 1, 2, 5, 9), (0, 2, 4, 6, 8)]


def make_engine(
    n_input=4,
    n_exc=3,
    *,
    seed=7,
    numeric=NumericSpec(),
    lif=DEFAULT_LIF,
    trace=DEFAULT_TRACE,
    stdp=DEFAULT_STDP,
    w_inh=0.5,
    weights=None,
    **engine_kwargs,
):
    topology = TopologyParams(n_input=n_input, n_exc=n_exc, w_inh=w_inh)
    store = build_network(topology, stdp, seed=seed, numeric=numeric, v_rest=lif.v_rest)
    if weights is not None:
        weights = np.asarray(weights)
        assert weights.shape == store.w.shape
        if numeric.is_fixed:
            from aersnn.numerics import quantize_array

            store.w = quantize_array(weights, numeric.w_format)
        else:
            store.w = weights.astype(np.float64)
    engine = EventEngine(store, lif, trace, stdp, topology, **engine_kwargs)
    return engine


def grid_to_packets(grid):
    """Boolean T x n grid to AER packets sorted by (timestamp, neuron id)."""
    ts, ids = np.nonzero(np.asarray(grid, dtype=bool))
    return packet_array(ids, ts)


def write_idx_images(path, images):
    import struct

    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(images.tobytes())


def write_idx_labels(path, labels):
    import struct

    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, labels.size))
        fh.write(labels.tobytes())


def make_idx_digit_dir(root, n_train=12, n_test=6, seed=0, side=28):
    """Write a tiny synthetic IDX dataset with the standard MNIST file
    names: blocky class-dependent patterns, labels cycling 0..9."""
    rng = np.random.default_rng(seed)
    root.mkdir(parents=True, exist_ok=True)

    def make_split(n, img_name, lbl_name):
        labels = np.arange(n) % 10
        images = np.zeros((n, side, side), dtype=np.uint8)
        for k, lbl in enumerate(labels):
            r = (int(lbl) * side) // 10
            images[k, r : r + max(2, side // 10), :] = 220
            images[k] = np.clip(
                images[k].astype(int) + rng.integers(0, 30, (side, side)), 0, 255
            ).astype(np.uint8)
        write_idx_images(root / img_name, images)
        write_idx_labels(root / lbl_name, labels)

    make_split(n_train, "train-images-idx3-ubyte", "train-labels-idx1-ubyte")
    make_split(n_test, "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")
    return root


def four_class_beats(n_per_class=2, n_features=251, seed=0):
    """Synthetic heartbeat-like waveforms, one sine family per class."""
    rng = np.random.default_rng(seed)
    beats = []
    for label in range(4):
        for _ in range(n_per_class):
            base = np.sin(np.linspace(0, 3 + label, n_features)) * (label + 1)
            beats.append((base + rng.normal(0, 0.1, n_features), label))
    return beats


def write_beat_csv(path, beats):
    lines = []
    for amplitudes, label in beats:
        lines.append(",".join(str(a) for a in amplitudes) + f",{label}")
    path.write_text("\n".join(lines) + "\n")
