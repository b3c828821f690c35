"""Seeded engine runs pinned to sha256 digests of their output packets,
their final store and their batched weight deltas.

Fixed mode has no independent oracle yet, and the dense float oracle
cannot express a neuron id repeated within one timestep, so these digests
are the guard for both. Most were recorded from the per-packet engine
that processed one packet at a time, so they pin its sequential
semantics: saturating fixed-point adds in stream order, repeated ids
integrating the row as depressed by their earlier occurrence, and
out-of-range ids dropped. The rest-below-zero and q4.6-weights cases
were recorded from the step-batched engine while it still held separate
float and fixed handlers. The q8.8-frozen store digest was recorded again
when frozen runs stopped updating the traces: that store's traces now keep
their values from the call, and its other arrays and digests are as first
recorded.
"""

import hashlib

import numpy as np
import pytest

from aersnn.event_engine import packet_array
from aersnn.numerics import NumericSpec, QFormat
from aersnn.topology import LifParams, store_to_bytes

from conftest import make_engine

Q8_8 = NumericSpec(mode="fixed")
# 3 integer bits: voltages saturate at about +-4 under dense input
Q3_8 = NumericSpec(mode="fixed", v_format=QFormat(3, 8))
NARROW_LIF = LifParams(v_rest=0.0, v_thresh=3.5, tau_v=100.0, dt=1.0)
# a rest level off zero is quantized by the store and by the engine
REST_LIF = LifParams(v_rest=-0.5, v_thresh=1.0, tau_v=100.0, dt=1.0)
# fewer weight than voltage fraction bits: rows shift left into voltage
# units, learning-rate products narrow by 14 + 8 - 6 = 16 bits
Q4_6_WEIGHTS = NumericSpec(mode="fixed", w_format=QFormat(4, 6))


def grid_stream(seed, steps, n_input, rate):
    """Bernoulli spikes, sorted by (timestep, id) like the encoder's."""
    grid = np.random.default_rng(seed).random((steps, n_input)) < rate
    ts, ids = np.nonzero(grid)
    return ids, ts


def messy_stream(seed, steps, n_input):
    """Per step, ids drawn with replacement in arbitrary order, about a
    quarter past the input layer: repeats and drops in every busy step."""
    rng = np.random.default_rng(seed)
    ids, ts = [], []
    for t in range(steps):
        k = int(rng.integers(0, 2 * n_input))
        ids.append(rng.integers(0, n_input + n_input // 5 + 1, k))
        ts.append(np.full(k, t))
    return np.concatenate(ids), np.concatenate(ts)


NARROW = dict(numeric=Q3_8, lif=NARROW_LIF, w_inh=1.5, n_input=16, n_exc=5)

# name: (make_engine keywords, input stream)
CASES = {
    "q8.8-learning": (dict(numeric=Q8_8), grid_stream(1, 80, 12, 0.3)),
    "q8.8-frozen": (dict(numeric=Q8_8, learning=False), grid_stream(2, 80, 12, 0.3)),
    "q8.8-accumulate": (dict(numeric=Q8_8, accumulate_updates=True),
                        grid_stream(3, 80, 12, 0.3)),
    "q3.8-dense-rails": (NARROW, grid_stream(4, 60, 16, 0.8)),
    "q3.8-dense-accumulate": (dict(NARROW, accumulate_updates=True),
                              grid_stream(5, 60, 16, 0.6)),
    "q8.8-repeats-and-drops": (dict(numeric=Q8_8, n_input=10), messy_stream(6, 70, 10)),
    "q8.8-rest-below-zero": (dict(numeric=Q8_8, lif=REST_LIF), grid_stream(9, 80, 12, 0.3)),
    "q4.6-weights": (dict(numeric=Q4_6_WEIGHTS), grid_stream(10, 80, 12, 0.3)),
    "float-repeats-and-drops": (dict(n_input=10), messy_stream(7, 70, 10)),
    "float-repeats-accumulate": (dict(n_input=10, accumulate_updates=True),
                                 messy_stream(8, 70, 10)),
}

# digests of (outputs, store, weight deltas or None, stats and activation log);
# the stats and the log are rebuilt from the run's per-step record
PINS = {
    'float-repeats-accumulate': (
        '2d5b355378fe1e5273a46cbc58ff1df44ad3c87946e87efcfa6771c799fe77dc',
        '8d980b5cca4725bf9eaf5dfc93d765afe68d2e04d05ebec41e05753fdc5be739',
        '23a743c703431429ad31ebb0e6e414511d2b416bff2a0fe5a04d96671cd8c28f',
        'aad62d24b5c81998dc0b042f5fd6e3f70bb35f69181f20eb87cd34a61704252a',
    ),
    'float-repeats-and-drops': (
        '91d9632a8b065e5611bda4841d227b5b51d35a2ae7917ab3f1edfa917421eef8',
        'f7c9dcdd5fea69ce804dd353ec810a25397540914605a492adc1445164ff512a',
        None,
        '569d7b92b1d4a330326f63cb6ad958b093842b5238cee758f5a7ba1f07d6364d',
    ),
    'q3.8-dense-accumulate': (
        '78858798aafc8713f89e390c403adbbb6644b7351c2d96e358134aeef36c93ff',
        '0f55b952eb779dda443dd82b5e9aa04b1f6e03bce59cf6b5782d29cabcada5f1',
        'f1ac52086ee869f2694fd75011c6c095aaad94b28aff07313aad6c6d88993918',
        'c2543fda147844475f8ba1f84acd477daf50fa3ac344f238603242d0696319ba',
    ),
    'q3.8-dense-rails': (
        '60808c30feb93ca64bba7b627fc775816534bcebc34bf7fadb430372ace7c827',
        '7686a8a685657aba27b693af52db3f4b2b356136d552be9dce69e7bc9b1db015',
        None,
        'e19a05e743fe7985f1862f4d55ecdccd9fa46ef99bafdc95d3f6b2a3d0172b9b',
    ),
    'q8.8-accumulate': (
        '05037d3cd4424de2ba288e1a0e222e2089a90ae9d3b0c52c5613030eb26e281a',
        'eb71742f5139d9cc297747518a419df286a325d3578de558b47af25aebaa90d1',
        'dcb9f8e1db1bb3e7d9e5ab1703afe8ceb42b4d6c5df67fd84bc86f6d544f28b0',
        '8b65e011457d9ad630989911add56ade4a37a6446ee6c584a2767888b615a51b',
    ),
    'q8.8-frozen': (
        'b680beeb18f27eab77d773619dc603e986617b457584bdb822f667dbbe1db5f5',
        'b2ef5de85f6147d278ce89bdb936ea26c45cebb5cf848fe2c878a20e96d6b041',
        None,
        '800bdc87029b68ac97b30c8b5f388689f9048ccd603ae64291e1b940882e4139',
    ),
    'q8.8-learning': (
        'f5af76243fac7165984cb1fac0404a6beacde2cae3ff762c78f2a20ab33af564',
        '7702af30bc0c1830e554950745e0c6b07e4ffe474e96c33701c3e5fd5ff52ef0',
        None,
        'c3a4400bbcc66d434c7e687b89d52d71528e37759a981f426c9908e576545f39',
    ),
    'q4.6-weights': (
        '6929acf1d4a5b8ee8a34d8515e40ab453a3d57be2c1d9449d6b08e6195bea1f9',
        'f0cdb2844a94856085813edfcc93e8a0074c3a77317e98d9639496b35699e1d0',
        None,
        '6239ba2782dff357e1e196440f3ee09be38f6c8ac464c038f29b0dc8eb6f552d',
    ),
    'q8.8-repeats-and-drops': (
        'b19a4035b58c5706bf5d9deed460ec80c578ffc77157de796689907e9ddcf434',
        'd8b029d4d0ca22ce507b6cd624bbcf32f6a659b9a2de217ec43c5d6edee96186',
        None,
        '1ef6009bee55e7bad3ff1c2a0a536373629b126ff5c8025b25269c768a7679b9',
    ),
    'q8.8-rest-below-zero': (
        'cbb482849c5c12e41e26e95a40c8e9e76137b221dbfc0a6640bc9db00a7cb4e3',
        'b8ef65c1e36a17823fe2b37761bd91eb743ed26f5b376c905fb7f60b9cfaca00',
        None,
        'de1ff68d0f0c5d96f06e467e5e910b3e69d1459ad6e0e85263ccc0d93c99ede3',
    ),
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name):
    kwargs, (ids, ts) = CASES[name]
    engine = make_engine(**dict(dict(n_input=12, n_exc=6, seed=11), **kwargs))
    result = engine.run(packet_array(ids, ts), stop_ts=int(ts.max()) + 4)
    delta = engine._w_delta
    # the (ts, phase, count) activation log the digests were recorded from
    log = [(t, phase, count)
           for t, (n, fired) in enumerate(zip(result.steps["integrated"].tolist(),
                                              result.steps["fired"].tolist()))
           for phase, count in (("integrate", n), ("leak", engine.store.n_exc),
                                ("fire", fired))]
    # the digests were recorded while EngineStats also carried the phase
    # activation counts, the column sums below
    steps = result.steps
    stats = dict(result.stats.as_dict(), integrate_activations=int(steps["integrated"].sum()),
                 leak_activations=len(steps), fire_activations=len(steps))
    counters = repr((sorted(stats.items()), log))
    return (sha(result.outputs.tobytes()), sha(store_to_bytes(engine.store)),
            None if delta is None else sha(delta.tobytes()), sha(counters.encode()))


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_pinned_digests(name):
    assert run_case(name) == PINS[name]
