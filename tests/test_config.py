"""Tests for model config parsing, normalization, and hashing."""

import inspect
import json

import pytest

from expcrm import checks
from expcrm.config import ModelConfig, model_config_from_dict, parse_model_config
from expcrm.errors import ConfigError, InvalidModelError
from expcrm.marginal import MarginalConfig
from expcrm.size_biased import SizeBiasedConfig


def gamma_dict(**over):
    data = {
        "likelihood": "poisson",
        "params": {"mass": 1.0, "xi": -1.0, "lam": 1.0},
    }
    data.update(over)
    return data


def test_every_truncation_default_is_the_same():
    cfg = model_config_from_dict(gamma_dict())
    size_biased, marginal = SizeBiasedConfig(), MarginalConfig()
    assert (cfg.rounds, cfg.x_max, cfg.eps_tail) == (
        size_biased.m_max, size_biased.x_max, size_biased.eps_tail
    )
    assert (marginal.x_max, marginal.eps_tail) == (cfg.x_max, cfg.eps_tail)
    for function in (checks.equivalence_run, checks.run_suite):
        params = inspect.signature(function).parameters
        assert (params["x_max"].default, params["eps_tail"].default) == (cfg.x_max, cfg.eps_tail)


class TestSchema:
    def test_minimal_gamma_config(self):
        cfg = model_config_from_dict(gamma_dict())
        assert cfg.family == "poisson"
        assert cfg.r is None
        assert cfg.params == {"mass": 1.0, "xi": [-1.0], "lam": 1.0}
        assert (cfg.rounds, cfg.x_max, cfg.eps_tail) == (1000, 50, 1e-6)
        assert cfg.seed == 0

    def test_prior_id_checked_when_given(self):
        cfg = model_config_from_dict(gamma_dict(prior="gamma_process"))
        assert cfg.entry.prior_id == "gamma_process"
        with pytest.raises(ConfigError, match="conjugate prior"):
            model_config_from_dict(gamma_dict(prior="beta_process"))

    def test_xi_accepts_scalar_or_list(self):
        a = model_config_from_dict(gamma_dict())
        b = model_config_from_dict(
            gamma_dict(params={"mass": 1.0, "xi": [-1.0], "lam": 1.0})
        )
        assert a.params == b.params

    @pytest.mark.parametrize("xi", [float("inf"), float("nan"), [-1.0, float("-inf")]])
    def test_xi_must_be_finite(self, xi):
        with pytest.raises(ConfigError, match=r"params\.xi must be finite"):
            model_config_from_dict(gamma_dict(params={"mass": 1.0, "xi": xi, "lam": 1.0}))
        atoms = [{"loc": 0.5, "xi": xi, "lam": 1.0}]
        with pytest.raises(ConfigError, match=r"fixed_atoms\[0\]\.xi must be finite"):
            model_config_from_dict(gamma_dict(fixed_atoms=atoms))

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            model_config_from_dict(gamma_dict(color="blue"))

    def test_unknown_params_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            model_config_from_dict(
                gamma_dict(params={"mass": 1.0, "xi": -1.0, "lam": 1.0, "tau": 2.0})
            )

    def test_params_or_native_exactly_one(self):
        with pytest.raises(ConfigError, match="exactly one"):
            model_config_from_dict({"likelihood": "poisson"})
        with pytest.raises(ConfigError, match="exactly one"):
            model_config_from_dict(
                {
                    "likelihood": "bernoulli",
                    "params": {"mass": 1.0, "xi": -1.0, "lam": 1.0},
                    "native": {"mass": 1.0, "alpha": 0.5, "theta": 1.0},
                }
            )

    def test_types_are_enforced(self):
        with pytest.raises(ConfigError, match="must be a number"):
            model_config_from_dict(gamma_dict(params={"mass": "1", "xi": -1.0, "lam": 1.0}))
        with pytest.raises(ConfigError, match="seed"):
            model_config_from_dict(gamma_dict(seed=1.5))
        with pytest.raises(ConfigError, match="seed"):
            model_config_from_dict(gamma_dict(seed=True))
        with pytest.raises(ConfigError, match="must be a JSON object"):
            model_config_from_dict([1, 2, 3])

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"params": {"mass": 1.0, "xi": -1.0, "lam": 1.0}}, "missing required key 'likelihood'"),
            (gamma_dict(likelihood=3), r"'likelihood' must be a string id, got 3"),
            (gamma_dict(likelihood="negative_binomial(abc)"), r"shape from likelihood id 'negative_binomial\(abc\)'"),
            (gamma_dict(likelihood="negative_binomial", r="2"), r"'r' must be a number, got '2'"),
            (gamma_dict(fixed_atoms=[{"xi": 0.0, "lam": 2.0}]), r"fixed_atoms\[0\] is missing required key 'loc'"),
            (gamma_dict(truncation={"eps_tail": 0}), r"truncation\.eps_tail must be positive, got 0"),
            (gamma_dict(fixed_atoms={"loc": 0.5}), "fixed_atoms must be a list, got dict"),
            (gamma_dict(seed=2**64), rf"seed must lie in \[0, 2\*\*64\), got {2**64}"),
            (gamma_dict(params={"mass": 1.0, "xi": -1.0}), "params is missing required key 'lam'"),
            (gamma_dict(params={"mass": 1.0, "xi": "a", "lam": 1.0}), r"params\.xi must be a number or a nonempty list"),
        ],
        ids=[
            "no likelihood", "likelihood not a string", "unparseable shape", "r not a number",
            "atom without loc", "eps_tail 0", "fixed_atoms an object", "seed 2**64",
            "params without lam", "xi a string",
        ],
    )
    def test_schema_errors_name_their_key(self, data, message):
        with pytest.raises(ConfigError, match=message):
            model_config_from_dict(data)

    def test_unknown_family(self):
        with pytest.raises(ConfigError, match="unknown likelihood id"):
            model_config_from_dict({"likelihood": "zeta", "params": {}})

    def test_truncation_block(self):
        cfg = model_config_from_dict(
            gamma_dict(truncation={"rounds": 12, "x_max": 7, "eps_tail": 0.01})
        )
        assert (cfg.rounds, cfg.x_max, cfg.eps_tail) == (12, 7, 0.01)
        with pytest.raises(ConfigError, match="rounds"):
            model_config_from_dict(gamma_dict(truncation={"rounds": 0}))
        with pytest.raises(ConfigError, match="must be an integer"):
            model_config_from_dict(gamma_dict(truncation={"x_max": 2.5}))
        # the samplers' int64 bound, checked where the schema is
        for key in ("rounds", "x_max"):
            top = model_config_from_dict(gamma_dict(truncation={key: 2**63 - 1}))
            assert getattr(top, key) == 2**63 - 1
            with pytest.raises(ConfigError, match=rf"^truncation\.{key} must be in 1\.\.{2**63 - 1}, got {2**63}$"):
                model_config_from_dict(gamma_dict(truncation={key: 2**63}))
        with pytest.raises(ConfigError, match="unknown key"):
            model_config_from_dict(gamma_dict(truncation={"m_max": 3}))


class TestNegativeBinomial:
    def test_r_as_separate_key(self):
        cfg = model_config_from_dict(
            {
                "likelihood": "negative_binomial",
                "r": 2.5,
                "params": {"mass": 1.0, "xi": -1.5, "lam": 0.3},
            }
        )
        assert cfg.family == "negative_binomial"
        assert cfg.r == 2.5
        assert cfg.entry.family == "negative_binomial(2.5)"

    def test_r_inside_the_id(self):
        cfg = model_config_from_dict(
            {
                "likelihood": "negative_binomial(2.5)",
                "params": {"mass": 1.0, "xi": -1.5, "lam": 0.3},
            }
        )
        assert cfg.r == 2.5

    def test_r_in_both_places_rejected(self):
        with pytest.raises(ConfigError, match="not both"):
            model_config_from_dict(
                {
                    "likelihood": "negative_binomial(2.5)",
                    "r": 2.5,
                    "params": {"mass": 1.0, "xi": -1.5, "lam": 0.3},
                }
            )

    def test_r_missing(self):
        with pytest.raises(ConfigError, match="needs 'r'"):
            model_config_from_dict(
                {"likelihood": "negative_binomial", "params": {"mass": 1.0, "xi": -1.5, "lam": 0.3}}
            )

    def test_r_on_wrong_family(self):
        with pytest.raises(ConfigError, match="no shape parameter"):
            model_config_from_dict(gamma_dict(r=2.0))


class TestNativeParams:
    def test_beta_process_native_matches_exp_form(self):
        native = model_config_from_dict(
            {"likelihood": "bernoulli", "native": {"mass": 2.0, "alpha": 0.5, "theta": 1.0}}
        ).build_prior()
        # xi = -alpha - 1, lam = theta - 2
        direct = model_config_from_dict(
            {"likelihood": "bernoulli", "params": {"mass": 2.0, "xi": -1.5, "lam": -1.0}}
        ).build_prior()
        assert native.xi == direct.xi
        assert native.lam == direct.lam
        assert native.mass == direct.mass

    def test_native_rejected_without_a_native_form(self):
        with pytest.raises(ConfigError, match="no native parametrization"):
            model_config_from_dict(
                {"likelihood": "poisson", "native": {"mass": 1.0, "alpha": 0.5, "theta": 1.0}}
            )

    def test_native_out_of_range_is_a_model_error(self):
        cfg = model_config_from_dict(
            {"likelihood": "bernoulli", "native": {"mass": 1.0, "alpha": 1.5, "theta": 1.0}}
        )
        with pytest.raises(InvalidModelError, match="alpha"):
            cfg.build_prior()

    def test_native_fixed_atoms(self):
        cfg = model_config_from_dict(
            {
                "likelihood": "bernoulli",
                "native": {"mass": 1.0, "alpha": 0.5, "theta": 1.0},
                "fixed_atoms": [{"loc": 0.125, "rho": 2.0, "sigma": 3.0}],
            }
        )
        prior = cfg.build_prior()
        atom = prior.fixed_atoms[0]
        # Beta(rho, sigma) in exponential coordinates
        assert atom.xi == (1.0,)
        assert atom.lam == 3.0

    def test_native_fixed_atom_errors(self, monkeypatch):
        def cfg(rho):
            return model_config_from_dict(
                {
                    "likelihood": "bernoulli",
                    "native": {"mass": 1.0, "alpha": 0.5, "theta": 1.0},
                    "fixed_atoms": [{"loc": 0.125, "rho": rho, "sigma": 3.0}],
                }
            )

        # a law outside the native region is the model's fault ...
        with pytest.raises(InvalidModelError, match="rho > 0"):
            cfg(-1.0).build_prior()

        # ... and any other error is a bug, which reaches the caller as it is
        def broken(self, rho, sigma):
            raise TypeError("bug in the native map")

        config = cfg(2.0)
        monkeypatch.setattr(type(config.entry), "native_fixed_atom", broken)
        with pytest.raises(TypeError, match="bug in the native map"):
            config.build_prior()

    def test_native_atoms_rejected_for_gamma(self):
        with pytest.raises(ConfigError, match="native fixed-atom"):
            model_config_from_dict(
                gamma_dict(fixed_atoms=[{"loc": 0.1, "rho": 2.0, "sigma": 3.0}])
            )

    def test_mixed_atom_keys_rejected(self):
        with pytest.raises(ConfigError, match="exactly 'loc'"):
            model_config_from_dict(
                gamma_dict(fixed_atoms=[{"loc": 0.1, "xi": 0.0, "sigma": 3.0}])
            )


class TestBuildValidation:
    def test_valid_gamma_builds(self):
        prior = model_config_from_dict(gamma_dict()).build_prior()
        assert prior.lam == 1.0
        assert prior.likelihood.family == "poisson"

    def test_out_of_range_xi_names_the_assumption(self):
        cfg = model_config_from_dict(
            gamma_dict(params={"mass": 1.0, "xi": -2.5, "lam": 1.0})
        )
        with pytest.raises(InvalidModelError, match="A2"):
            cfg.build_prior()

    def test_a1_violation_named(self):
        cfg = model_config_from_dict(
            gamma_dict(params={"mass": 1.0, "xi": -0.5, "lam": 1.0})
        )
        with pytest.raises(InvalidModelError, match="A1"):
            cfg.build_prior()

    def test_fixed_atoms_built(self):
        cfg = model_config_from_dict(
            gamma_dict(fixed_atoms=[{"loc": 0.75, "xi": 0.0, "lam": 2.0}])
        )
        prior = cfg.build_prior()
        assert prior.fixed_atoms[0].location.value == 0.75
        assert prior.fixed_atoms[0].xi == (0.0,)


class TestHashing:
    def test_hash_is_stable_and_hex(self):
        cfg = model_config_from_dict(gamma_dict())
        h = cfg.config_hash()
        assert h == cfg.config_hash()
        assert len(h) == 64
        int(h, 16)

    def test_hash_ignores_formatting_but_not_meaning(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(gamma_dict(), indent=4))
        b.write_text(json.dumps(gamma_dict(), separators=(",", ":")))
        assert parse_model_config(a).config_hash() == parse_model_config(b).config_hash()
        c = tmp_path / "c.json"
        c.write_text(json.dumps(gamma_dict(seed=1)))
        assert parse_model_config(c).config_hash() != parse_model_config(a).config_hash()

    def test_jsonable_round_trips_through_parser(self):
        cfg = model_config_from_dict(
            gamma_dict(
                fixed_atoms=[{"loc": 0.25, "xi": 0.5, "lam": 2.0}],
                truncation={"rounds": 40},
                seed=7,
            )
        )
        again = model_config_from_dict(cfg.to_jsonable())
        assert again == cfg


class TestFileParsing:
    def test_reads_a_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(gamma_dict()))
        cfg = parse_model_config(path)
        assert isinstance(cfg, ModelConfig)
        assert cfg.family == "poisson"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_model_config(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="malformed JSON"):
            parse_model_config(path)
