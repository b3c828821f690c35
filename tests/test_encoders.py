import gzip
import hashlib
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
import warnings
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
from oracles import one_grid_encode


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
# synthetic_digit() at 350 steps, recorded from the encoder that drew the
# whole grid in one call
PAPER_SCALE_PINS = {
    (0.25, 12384): (5769, "f801c49f032a09911871c1e5805a79f89726e132bc367384c6762186ef3df413"),
    (1.0, 5): (23160, "55abecd72d59c9ef4cc3038f1967ef98079ad2cb1e0c65bcc28e1c1dbaa34583"),
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


class TestRowBlocks:
    """A large sample's grid is drawn in row blocks, on as many threads;
    the packets are those of the one-grid draw."""

    @pytest.mark.parametrize("cpus, timesteps, n, bounds", [
        (2, 350, 784, [0, 175, 350]),
        (3, 350, 784, [0, 116, 233, 350]),
        # blocks of at least 84 rows of 784 draws: four at most
        (8, 350, 784, [0, 87, 175, 262, 350]),
        (1, 350, 784, [0, 350]),
        (2, 100, 251, [0, 100]),
        (2, 1, 10**6, [0, 1]),
        (2, 10, 0, [0, 10]),
    ])
    def test_one_block_per_cpu_none_under_the_minimum(self, monkeypatch, cpus, timesteps, n,
                                                        bounds):
        monkeypatch.setattr(encoders, "_cpu_count", lambda: cpus)
        assert encoders._row_blocks(timesteps, n) == bounds
        if len(bounds) > 2:
            assert min(np.diff(bounds)) * n >= encoders._MIN_BLOCK_DRAWS

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("min_draws", [1, 64, encoders._MIN_BLOCK_DRAWS])
    @settings(max_examples=25)
    @given(case=encodings())
    def test_blocks_reproduce_the_one_grid_stream(self, min_draws, cpus, case):
        features, timesteps, max_rate, seed = case
        want = one_grid_encode(features, timesteps, max_rate, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(encoders, "_MIN_BLOCK_DRAWS", min_draws)
            mp.setattr(encoders, "_cpu_count", lambda: cpus)
            got = poisson_encode(Sample(features=features, label=0),
                                 EncoderParams(timesteps, max_rate, seed))
        assert got.tobytes() == want.tobytes()

    # the CLI and engine pins run samples too small to split
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("max_rate, seed", sorted(PAPER_SCALE_PINS))
    def test_paper_scale_digit_matches_its_pin(self, monkeypatch, cpus, max_rate, seed):
        monkeypatch.setattr(encoders, "_cpu_count", lambda: cpus)
        packets = poisson_encode(synthetic_digit(), EncoderParams(350, max_rate, seed))
        count, digest = PAPER_SCALE_PINS[max_rate, seed]
        assert len(packets) == count
        assert hashlib.sha256(packets.tobytes()).hexdigest() == digest

    def test_import_and_a_small_encode_start_no_thread(self):
        code = (
            "import threading\n"
            "import numpy as np\n"
            "before = threading.active_count()\n"
            "import aersnn.encoders as e\n"
            "e.poisson_encode(e.Sample(np.full(251, 0.5), 0), e.EncoderParams(100, 0.25))\n"
            "assert threading.active_count() == before, threading.enumerate()\n"
            "e._cpu_count = lambda: 2\n"
            "e.poisson_encode(e.Sample(np.full(784, 0.5), 0), e.EncoderParams(350, 0.25))\n"
            "assert threading.active_count() == before + 1, threading.enumerate()\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(encoders.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_threads_encoding_at_once_get_their_own_packets(self, monkeypatch):
        # more encoding threads than cores, and more blocks than helpers
        monkeypatch.setattr(encoders, "_cpu_count", lambda: 3)
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

    def test_a_block_that_fails_on_a_helper_raises_in_the_caller(self, monkeypatch):
        monkeypatch.setattr(encoders, "_cpu_count", lambda: 2)
        sample, params = synthetic_digit(), EncoderParams(350, 0.25, seed=4)
        encode_rows = encoders._encode_rows

        def fail_past_the_first(seed, thresh, draws, grid, start, stop):
            if start:
                raise MemoryError("block from row 175")
            return encode_rows(seed, thresh, draws, grid, start, stop)

        monkeypatch.setattr(encoders, "_encode_rows", fail_past_the_first)
        with pytest.raises(MemoryError, match="block from row 175"):
            poisson_encode(sample, params)
        monkeypatch.setattr(encoders, "_encode_rows", encode_rows)
        # the helper serves the next sample
        want = one_grid_encode(sample.features, 350, 0.25, seed=4)
        assert poisson_encode(sample, params).tobytes() == want.tobytes()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
    def test_a_forked_child_encodes_with_its_own_helpers(self, monkeypatch):
        monkeypatch.setattr(encoders, "_cpu_count", lambda: 2)
        sample, params = synthetic_digit(), EncoderParams(350, 0.25, seed=3)
        want = poisson_encode(sample, params).tobytes()  # split: the helper runs
        with warnings.catch_warnings():
            # Python 3.12 on warns when a process with threads forks; the
            # child runs one encode and leaves through os._exit
            warnings.filterwarnings("ignore", message="This process .* is multi-threaded",
                                    category=DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if poisson_encode(sample, params).tobytes() == want else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while not (status := os.waitpid(pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's encode did not finish in 60 s")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status[1]) == 0


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
