"""Software model of an event-driven, online-learning spiking network
processor: AER packet I/O, iterative fixed-point leak arithmetic, and
trace-based STDP in an excitatory-inhibitory competitive layer."""

from .config import ConfigError, RunConfig, config_hash, derive_seed, parse_config
from .dynamics import (
    LifParams,
    NeuronState,
    TraceParams,
    bump_trace,
    fire_check,
    integrate,
    leak_state,
)
from .encoders import (
    DatasetError,
    EncoderParams,
    EncodingError,
    Sample,
    load_ecg_beats,
    load_mnist,
    poisson_encode,
    split_samples,
)
from .event_engine import (
    PACKET_DTYPE,
    EngineError,
    EventEngine,
    FifoOverflowError,
    ProtocolError,
    packet_array,
    read_aer_file,
    write_aer_file,
)
from .evaluator import (
    Metrics,
    NeuronLabels,
    assign_labels,
    classify,
    evaluate,
    run_experiment,
    sweep,
)
from .numerics import (
    DecayParams,
    Fixed,
    NumericSpec,
    QFormat,
    exp_decay_reference,
    leak_decay,
    leak_toward,
    to_fixed,
    to_real,
)
from .plasticity import (
    PairStdpParams,
    SpikeTrain,
    StdpParams,
    ltd_on_pre,
    ltp_on_post,
    pair_stdp_delta,
)
from .reference_sim import dense_simulate
from .topology import (
    CheckpointError,
    StateStore,
    TopologyParams,
    build_network,
    load_store,
    queue_inhibition,
    reset_for_sample,
    save_store,
)

__version__ = "0.1.0"
