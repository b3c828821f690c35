import gzip
import hashlib
import math
import os
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aersnn import encoders
from aersnn.encoders import (
    DatasetError,
    EncoderParams,
    EncodingError,
    Sample,
    load_ecg_beats,
    load_mnist,
    poisson_encode,
    split_samples,
)

from conftest import (
    four_class_beats,
    make_idx_digit_dir,
    write_beat_csv,
    write_idx_labels,
)
from oracles import comparator_encode


class TestEncoderParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            EncoderParams(timesteps=0, max_rate=0.5)
        with pytest.raises(ValueError):
            EncoderParams(timesteps=10, max_rate=0.0)
        with pytest.raises(ValueError):
            EncoderParams(timesteps=10, max_rate=1.5)


class TestPoissonEncode:
    def test_zero_features_yield_empty_stream(self):
        s = Sample(features=np.zeros(8), label=0)
        assert poisson_encode(s, EncoderParams(timesteps=50, max_rate=1.0)).size == 0

    def test_saturated_feature_fires_every_step(self):
        s = Sample(features=np.array([1.0, 0.0]), label=0)
        packets = poisson_encode(s, EncoderParams(timesteps=40, max_rate=1.0))
        assert packets.timestamp.tolist() == list(range(40))
        assert np.all(packets.neuron_id == 0)

    def test_binomial_concentration(self):
        s = Sample(features=np.array([0.5]), label=0)
        p = EncoderParams(timesteps=10_000, max_rate=0.5, seed=17)
        count = len(poisson_encode(s, p))
        sigma = math.sqrt(10_000 * 0.25 * 0.75)
        assert abs(count - 2500) <= 3 * sigma

    def test_mean_count_converges_over_seeds(self):
        # law of large numbers at timesteps * trials >= 1e5
        s = Sample(features=np.array([0.8]), label=0)
        total = 0
        trials, steps, rate = 100, 1000, 0.25
        for seed in range(trials):
            total += len(poisson_encode(s, EncoderParams(steps, rate, seed=seed)))
        expected = 0.8 * rate * steps * trials
        sigma = math.sqrt(steps * trials * 0.2 * 0.8)
        assert abs(total - expected) <= 3 * sigma

    def test_sorted_non_decreasing_timestamps(self):
        rng = np.random.default_rng(4)
        s = Sample(features=rng.random(30), label=0)
        packets = poisson_encode(s, EncoderParams(timesteps=80, max_rate=0.5, seed=9))
        keys = list(zip(packets.timestamp.tolist(), packets.neuron_id.tolist()))
        assert keys == sorted(keys)

    def test_same_seed_same_stream(self):
        s = Sample(features=np.linspace(0, 1, 20), label=3)
        p = EncoderParams(timesteps=60, max_rate=0.3, seed=123)
        assert np.array_equal(poisson_encode(s, p), poisson_encode(s, p))

    def test_rejects_out_of_range_features(self):
        with pytest.raises(EncodingError):
            poisson_encode(Sample(features=np.array([1.2]), label=0),
                           EncoderParams(timesteps=5, max_rate=0.5))
        with pytest.raises(EncodingError):
            poisson_encode(Sample(features=np.array([-0.1]), label=0),
                           EncoderParams(timesteps=5, max_rate=0.5))

    @pytest.mark.parametrize("features", [np.float64(0.5), np.full((28, 28), 0.5)])
    def test_rejects_features_that_are_not_a_vector(self, features):
        with pytest.raises(EncodingError, match="must be a vector"):
            poisson_encode(Sample(features=features, label=0),
                           EncoderParams(timesteps=5, max_rate=0.5))

    @pytest.mark.parametrize("features", [[np.nan], [0.5, np.nan, 0.2], [np.nan, 1.5]])
    def test_rejects_nan_features(self, features):
        # nan fails every comparison, so a range check must be one it fails
        with pytest.raises(EncodingError):
            poisson_encode(Sample(features=np.array(features), label=0),
                           EncoderParams(timesteps=5, max_rate=0.5))


def synthetic_digit():
    """A seeded 28 x 28 digit: a 20 x 10 stroke of random intensities, about
    60% of its pixels lit, on a black ground."""
    rng = np.random.default_rng(2209)
    img = np.zeros((28, 28))
    img[4:24, 9:19] = rng.integers(0, 256, (20, 10)) / 255.0
    img[4:24, 9:19] *= rng.random((20, 10)) < 0.6
    return Sample(features=img.ravel(), label=7)


# (max_rate, seed): packet count and sha256 of the packets of
# synthetic_digit() at 350 steps, recorded from the 16-bit comparator
# encoder
PAPER_SCALE_PINS = {
    (0.25, 12384): (5827, "f6ca54aa9da2ff391bd0015f918cc22d876168d8f16dab2845885935cce71afc"),
    (1.0, 5): (23121, "11979ddad59dd22a4357e42bf0721745364e36c2fe38d69171fe988956b126d4"),
}


@st.composite
def encodings(draw):
    """features, timesteps, max_rate, seed; about a quarter of the
    features exactly 0 and a quarter exactly 1."""
    timesteps = draw(st.sampled_from([1, 2, 3, 350]) | st.integers(0, 200).map(lambda k: 2 * k + 1))
    n = draw(st.sampled_from([1, 251, 784]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    features = rng.random(n)
    kind = rng.integers(0, 4, n)
    features[kind == 0] = 0.0
    features[kind == 1] = 1.0
    max_rate = draw(st.sampled_from([1.0, 0.25]) | st.floats(0.0, 1.0, exclude_min=True))
    return features, timesteps, max_rate, draw(st.integers(0, 2**64 - 1))


class TestComparatorStream:
    """Draw k of a sample's stream is the k-th little-endian 16-bit word of
    its PCG64's raw outputs; an input fires below its 16-bit threshold."""

    @settings(max_examples=60)
    @given(case=encodings())
    def test_matches_the_draw_at_a_time_reference(self, case):
        features, timesteps, max_rate, seed = case
        want = comparator_encode(features, timesteps, max_rate, seed)
        got = poisson_encode(Sample(features=features, label=0),
                             EncoderParams(timesteps, max_rate, seed))
        assert got.tobytes() == want.tobytes()

    def test_draw_k_is_little_endian_word_k_of_the_raw_outputs(self):
        raw = np.random.PCG64(31).random_raw(5)
        want = [(int(raw[k // 4]) >> (16 * (k % 4))) & 0xFFFF for k in range(20)]
        assert encoders._draws(raw).tolist() == want
        # the same outputs held big-endian, as on a big-endian host
        assert encoders._draws(raw.astype(">u8")).tolist() == want

    def test_inputs_fire_where_their_draws_are_below_their_thresholds(self):
        # thresholds 0, 1, 2**15, 2**16 - 1 and 2**16 at max_rate 1: the
        # first never fires and the last always. This stream holds each edge
        # draw: 0 for inputs 0 and 1, 0xFFFF and 0xFFFE for input 3, 0xFFFF
        # for input 4
        steps = 1 << 16
        raw = np.random.PCG64(19).random_raw(steps * 5 // 4)
        draws = np.stack([(raw >> np.uint64(16 * j)) & np.uint64(0xFFFF) for j in range(4)],
                         axis=1).reshape(steps, 5)
        edges = [(0, 0), (1, 0), (3, 0xFFFF), (3, 0xFFFE), (4, 0xFFFF)]
        assert [int((draws[:, i] == d).sum()) for i, d in edges] == [1, 1, 1, 2, 2]
        features = np.array([0.999 * 2.0**-16, 2.0**-16, 0.5, 1.0 - 2.0**-16, 1.0])
        packets = poisson_encode(Sample(features=features, label=0),
                                 EncoderParams(steps, 1.0, seed=19))
        fired = np.zeros((steps, 5), dtype=bool)
        fired[packets.timestamp, packets.neuron_id] = True
        assert np.array_equal(fired, draws < np.array([0, 1, 2**15, 2**16 - 1, 2**16]))
        assert not fired[:, 0].any() and fired[:, 4].all()

    @pytest.mark.parametrize("max_rate, seed", sorted(PAPER_SCALE_PINS))
    def test_paper_scale_digit_matches_its_pin(self, max_rate, seed):
        packets = poisson_encode(synthetic_digit(), EncoderParams(350, max_rate, seed))
        count, digest = PAPER_SCALE_PINS[max_rate, seed]
        assert len(packets) == count
        assert hashlib.sha256(packets.tobytes()).hexdigest() == digest

    def test_no_encode_starts_a_thread(self):
        code = (
            "import os, threading\n"
            "import numpy as np\n"
            "def threads():\n"
            "    tasks = '/proc/self/task'\n"
            "    return threading.active_count(), os.path.isdir(tasks) and len(os.listdir(tasks))\n"
            "before = threads()\n"
            "import aersnn.encoders as e\n"
            "e.poisson_encode(e.Sample(np.full(251, 0.5), 0), e.EncoderParams(100, 0.25))\n"
            "e.poisson_encode(e.Sample(np.full(784, 0.5), 0), e.EncoderParams(350, 0.25))\n"
            "assert threads() == before, (before, threads(), threading.enumerate())\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(encoders.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    # T * n draws take ceil(T * n / 4) raw outputs: these cover each count of
    # draws left over in the last output, and a sample with no inputs
    @pytest.mark.parametrize("timesteps, n", [
        (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (3, 3), (5, 7), (4, 0),
    ])
    def test_matches_the_reference_whatever_the_last_output_holds(self, timesteps, n):
        features = np.random.default_rng(n).random(n)
        features[::3] = 1.0
        want = comparator_encode(features, timesteps, 1.0, seed=11)
        got = poisson_encode(Sample(features=features, label=0),
                             EncoderParams(timesteps, 1.0, seed=11))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("short, long, n", [(1, 2, 3), (5, 9, 7), (100, 350, 251)])
    def test_a_longer_encode_begins_with_the_shorter_one(self, short, long, n):
        # draws run step by step, so the first steps do not depend on the last
        sample = Sample(features=np.random.default_rng(n).random(n), label=0)
        head = poisson_encode(sample, EncoderParams(short, 0.5, seed=21))
        whole = poisson_encode(sample, EncoderParams(long, 0.5, seed=21))
        assert whole[whole.timestamp < short].tobytes() == head.tobytes()

    # (feature, max_rate) pairs of one 16-bit threshold, and that threshold
    @pytest.mark.parametrize("a, b, threshold", [
        ((0.5, 0.5), (0.25, 1.0), 16384),
        ((1.0, 1.5 * 2.0**-16), (2.0**-16, 1.0), 1),
        ((0.3, 1.0), (19660 / 2**16, 1.0), 19660),
        ((0.999 * 2.0**-16, 1.0), (0.0, 1.0), 0),
    ])
    def test_rates_of_one_threshold_encode_alike(self, a, b, threshold):
        feature, max_rate = a
        assert math.floor(feature * max_rate * 2**16) == threshold
        streams = [poisson_encode(Sample(features=np.full(16, f), label=0),
                                  EncoderParams(4096, m, seed=6)).tobytes()
                   for f, m in (a, b)]
        want = comparator_encode(np.full(16, threshold / 2**16), 4096, 1.0, seed=6)
        assert streams == [want.tobytes()] * 2

    @settings(max_examples=25)
    @given(case=encodings())
    def test_lowering_features_only_removes_spikes(self, case):
        features, timesteps, max_rate, seed = case
        lower = features * np.random.default_rng(seed % 2**32).random(features.size)
        params = EncoderParams(timesteps, max_rate, seed)
        flat = []
        for f in (lower, features):
            packets = poisson_encode(Sample(features=f, label=0), params)
            flat.append(packets.timestamp.astype(np.int64) * features.size + packets.neuron_id)
        assert np.isin(flat[0], flat[1]).all()

    @settings(max_examples=25)
    @given(case=encodings(), value=st.floats(0.0, 1.0))
    def test_an_input_fires_on_its_own_draws_only(self, case, value):
        features, timesteps, max_rate, seed = case
        changed = features.copy()
        changed[features.size // 2] = value
        params = EncoderParams(timesteps, max_rate, seed)
        kept = [p[p.neuron_id != features.size // 2].tobytes()
                for p in (poisson_encode(Sample(features=f, label=0), params)
                          for f in (features, changed))]
        assert kept[0] == kept[1]

    # a full rate's threshold, 2**16, does not fit the 16-bit compare; the
    # stream of seed 2055 draws 0xFFFF in each of these sets of inputs
    @pytest.mark.parametrize("full", [[0], [250], [0, 7, 8, 9, 250], list(range(251))])
    def test_full_rate_inputs_fire_at_every_step(self, full):
        steps, n = 1000, 251
        raw = np.random.PCG64(2055).random_raw(-(-steps * n // 4))
        draws = encoders._draws(raw)[:steps * n].reshape(steps, n)
        assert (draws[:, full] == 0xFFFF).any()
        features = np.random.default_rng(3).random(n) * 0.999
        features[full] = 1.0
        packets = poisson_encode(Sample(features=features, label=0),
                                 EncoderParams(steps, 1.0, seed=2055))
        fired = np.zeros((steps, n), dtype=bool)
        fired[packets.timestamp, packets.neuron_id] = True
        assert np.array_equal(fired, draws < np.floor(features * 2**16))
        assert fired[:, full].all()

    def test_threads_encoding_at_once_get_their_own_packets(self):
        rng = np.random.default_rng(8)
        jobs = [(Sample(features=rng.random(784), label=0), EncoderParams(350, 0.25, seed=k))
                for k in range(4)]
        alone = [poisson_encode(*job).tobytes() for job in jobs]
        together = [[] for _ in jobs]

        def encode(k):
            for _ in range(5):
                together[k].append(poisson_encode(*jobs[k]).tobytes())

        threads = [threading.Thread(target=encode, args=(k,)) for k in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert together == [[packets] * 5 for packets in alone]


class TestRateEncodeEcg:
    def test_zero_beat_is_silent(self):
        s = Sample(features=np.zeros(251), label=0)
        assert poisson_encode(s, EncoderParams(timesteps=100, max_rate=0.25)).size == 0


class TestLoadMnist:
    def test_loads_synthetic_idx(self, tmp_path):
        make_idx_digit_dir(tmp_path, n_train=12, n_test=6)
        train = load_mnist(tmp_path, "train")
        test = load_mnist(tmp_path, "test")
        assert len(train) == 12 and len(test) == 6
        for s in train + test:
            assert s.features.shape == (784,)
            assert 0.0 <= s.features.min() and s.features.max() <= 1.0
        assert [s.label for s in train[:10]] == list(range(10))

    def test_gzipped_files_accepted(self, tmp_path):
        make_idx_digit_dir(tmp_path)
        for name in list(tmp_path.iterdir()):
            gz = name.with_name(name.name + ".gz")
            with open(name, "rb") as src, gzip.open(gz, "wb") as dst:
                shutil.copyfileobj(src, dst)
            name.unlink()
        assert len(load_mnist(tmp_path, "train")) == 12

    def test_bad_magic_rejected(self, tmp_path):
        make_idx_digit_dir(tmp_path)
        img = tmp_path / "train-images-idx3-ubyte"
        data = bytearray(img.read_bytes())
        data[3] = 0x99
        img.write_bytes(bytes(data))
        with pytest.raises(DatasetError, match="magic"):
            load_mnist(tmp_path, "train")

    def test_truncated_payload_rejected(self, tmp_path):
        make_idx_digit_dir(tmp_path)
        img = tmp_path / "train-images-idx3-ubyte"
        img.write_bytes(img.read_bytes()[:-10])
        with pytest.raises(DatasetError):
            load_mnist(tmp_path, "train")

    def test_count_mismatch_rejected(self, tmp_path):
        make_idx_digit_dir(tmp_path)
        write_idx_labels(tmp_path / "train-labels-idx1-ubyte", np.zeros(5))
        with pytest.raises(DatasetError, match="mismatch"):
            load_mnist(tmp_path, "train")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="missing"):
            load_mnist(tmp_path, "train")


class TestLoadEcgBeats:
    def test_loads_and_normalizes(self, tmp_path):
        path = tmp_path / "beats.csv"
        write_beat_csv(path, four_class_beats())
        samples = load_ecg_beats(path)
        assert len(samples) == 8
        assert sorted({s.label for s in samples}) == [0, 1, 2, 3]
        for s in samples:
            assert s.features.shape == (251,)
            assert s.features.min() == 0.0
            assert s.features.max() == pytest.approx(1.0)

    def test_flat_beat_maps_to_zeros(self, tmp_path):
        beats = four_class_beats()
        beats[0] = (np.full(251, 3.3), 0)
        path = tmp_path / "beats.csv"
        write_beat_csv(path, beats)
        samples = load_ecg_beats(path)
        assert np.all(samples[0].features == 0.0)

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "beats.csv"
        path.write_text(",".join(["0.1"] * 200) + ",1\n")
        with pytest.raises(DatasetError, match="columns"):
            load_ecg_beats(path)

    def test_unknown_class_rejected(self, tmp_path):
        path = tmp_path / "beats.csv"
        write_beat_csv(path, [(np.zeros(251) + 0.5, 7)])
        with pytest.raises(DatasetError, match="class"):
            load_ecg_beats(path)

    @pytest.mark.parametrize("amplitudes", [["nan"], ["inf"], ["-inf"], ["NaN", "inf"],
                                            ["1e308", "-1e308"]],
                             ids=["nan", "inf", "minus-inf", "nan-and-inf", "range-overflows"])
    def test_non_finite_amplitudes_rejected_with_their_line(self, tmp_path, amplitudes):
        # no RuntimeWarning either: the suite turns warnings into errors
        path = tmp_path / "beats.csv"
        write_beat_csv(path, four_class_beats())
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[5:5 + len(amplitudes)] = amplitudes
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        line = re.escape(f"{path}:3: amplitudes ")
        with pytest.raises(DatasetError, match=f"^{line}.* no finite range$"):
            load_ecg_beats(path)

    def test_requires_all_four_classes(self, tmp_path):
        path = tmp_path / "beats.csv"
        write_beat_csv(path, four_class_beats()[:4])  # classes 0 and 1 only
        with pytest.raises(DatasetError, match="classes"):
            load_ecg_beats(path)


class TestSplitSamples:
    def test_deterministic_and_disjoint(self):
        samples = [Sample(features=np.array([k / 10.0]), label=k % 4)
                   for k in range(10)]
        a_train, a_test = split_samples(samples, 0.3, seed=5)
        b_train, b_test = split_samples(samples, 0.3, seed=5)
        assert [s.label for s in a_train] == [s.label for s in b_train]
        assert [s.label for s in a_test] == [s.label for s in b_test]
        assert len(a_test) == 3
        assert len(a_train) + len(a_test) == 10
