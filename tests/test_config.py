from dataclasses import fields, make_dataclass

import pytest

from aersnn.config import (
    _KEY_MAP,
    ConfigError,
    RunConfig,
    canonical_text,
    config_hash,
    derive_seed,
    parse_config,
    parse_config_file,
)


class TestParseConfig:
    def test_typed_values_and_comments(self):
        cfg = parse_config(
            """
            # comment line
            topology.n_exc = 25
            lif.v_thresh = 2.5   # trailing comment
            numeric.mode = fixed
            engine.batch_size = 4
            engine.log_activations = true
            run.seed = 99
            """
        )
        assert cfg.n_exc == 25
        assert cfg.v_thresh == 2.5
        assert cfg.mode == "fixed"
        assert cfg.batch_size == 4
        assert cfg.log_activations is True
        assert cfg.seed == 99

    def test_unknown_key_is_an_error(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("lif.v_tresh = 1.0")

    def test_malformed_line_is_an_error(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("just some words")

    def test_bad_value_is_an_error(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("topology.n_exc = many")

    @pytest.mark.parametrize("line", ["lif.v_thresh = nan", "lif.v_thresh = inf",
                                      "stdp.w_max = NaN", "engine.v_floor = -inf"])
    def test_non_finite_float_is_an_error(self, line):
        # nan passes every range check, as it fails every comparison
        with pytest.raises(ConfigError, match="must be finite"):
            parse_config(line)

    def test_v_floor_auto(self):
        cfg = parse_config("engine.v_floor = auto")
        assert cfg.v_floor is None
        assert cfg.resolved_v_floor() == -cfg.v_thresh
        cfg = parse_config("engine.v_floor = -3.5")
        assert cfg.resolved_v_floor() == -3.5

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("topology.n_input = 64\n")
        assert parse_config_file(path).n_input == 64

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config_file(tmp_path / "nope.cfg")


class TestValidate:
    def test_default_config_is_valid(self):
        RunConfig().validate()

    def test_module_invariants_surface_as_config_errors(self):
        with pytest.raises(ConfigError):
            RunConfig(v_thresh=-1.0, v_rest=0.0).validate()
        with pytest.raises(ConfigError):
            RunConfig(tau_v=0.5, dt=1.0).validate()
        with pytest.raises(ConfigError):
            RunConfig(dataset="imagenet").validate()
        with pytest.raises(ConfigError):
            RunConfig(batch_size=0).validate()
        with pytest.raises(ConfigError):
            RunConfig(max_rate=2.0).validate()

    def test_bundle_field_without_a_config_field_fails_loudly(self):
        # bundles take every field from the config field of its name
        bundle = make_dataclass("Bundle", [("n_exc", int), ("theta", float, 0.0)])
        with pytest.raises(AttributeError, match="theta"):
            RunConfig()._bundle(bundle)
        assert RunConfig()._bundle(bundle, theta=0.5) == bundle(n_exc=100, theta=0.5)

    def test_negative_n_classes_is_an_error(self):
        assert RunConfig(n_classes=0).resolved_n_classes() == 10
        RunConfig(n_classes=0).validate()
        with pytest.raises(ConfigError, match="n_classes"):
            RunConfig(n_classes=-1).validate()


class TestConfigHash:
    def test_hash_stable_and_seed_independent(self):
        a = RunConfig(seed=1)
        b = RunConfig(seed=999)
        assert config_hash(a) == config_hash(b)

    def test_hash_tracks_parameters(self):
        assert config_hash(RunConfig()) != config_hash(RunConfig(n_exc=64))

    def test_canonical_text_covers_every_key(self):
        text = canonical_text(RunConfig())
        assert "run.seed" not in text
        assert "topology.n_exc = 100" in text
        assert "engine.v_floor = auto" in text
        # canonical text parses back to the same config (minus seed)
        reparsed = parse_config(text)
        assert config_hash(reparsed) == config_hash(RunConfig())

    def test_hash_of_the_default_and_ecg_fixed_configs(self):
        # pins the key table itself, besides the artifacts that embed the hash
        assert config_hash(RunConfig()) == (
            "44b73ce2847a397550e022c3c3cf9f0ab4e61ee9d0cc67be0d2cbc4ef5a0b8f5")
        assert config_hash(RunConfig(dataset="ecg", mode="fixed")) == (
            "df2488ac8f2e4b48dfbd2dbda514b821261b582ffa32254fda9dd483dec071dd")

    def test_every_field_has_one_key(self):
        # canonical_text, so config_hash, covers exactly the mapped keys: a
        # field and its key are added or removed together
        assert sorted(_KEY_MAP.values()) == sorted(f.name for f in fields(RunConfig))


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)

    def test_streams_diverge(self):
        seeds = {derive_seed(7, stream, 0) for stream in range(5)}
        assert len(seeds) == 5

    def test_root_changes_children(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)
