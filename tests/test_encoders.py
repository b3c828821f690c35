import gzip
import math
import re
import shutil

import numpy as np
import pytest

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
