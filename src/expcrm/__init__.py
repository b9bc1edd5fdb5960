"""Conjugate random-measure models with exponential-family kernels.

The package builds trait-measure priors whose weight laws share an
exponential-family kernel with the observation likelihood, so posterior
updates, size-biased prior draws, and marginal observation sampling all
stay in closed form where the catalog provides one, and fall back to
validated numeric quadrature where it does not.

Entry points:

* :mod:`expcrm.catalog` for the four shipped likelihood/prior pairs,
* :func:`auto_conjugate` and :func:`posterior_update` for the conjugacy
  arithmetic,
* :class:`SizeBiasedSampler` and :class:`MarginalSampler` for the two
  generative processes,
* :func:`run_suite` for numeric verification of a model,
* ``expcrm`` (console script, :func:`expcrm.cli.main`) for batch use.

``import expcrm`` loads no submodule: each public name below is read from
its module the first time it is used (PEP 562), so code pays only for the
modules it touches.
"""

import importlib

__version__ = "0.1.0"

# each public name, listed once under the module it is read from
_EXPORTS = {
    "catalog": (
        "BERNOULLI_BETA", "ODDS_BERNOULLI_BETA_PRIME", "POISSON_GAMMA", "entry_for", "get_entry",
        "hyperparam_valid", "list_entries",
    ),
    "checks": ("CheckReport", "check_assumptions", "equivalence_run", "run_suite"),
    "config": ("ModelConfig", "parse_model_config"),
    "errors": (
        "ConfigError", "DivergenceSuspected", "DomainError", "ExpCrmError", "InvalidModelError",
        "InvalidObservationError", "QuadratureError", "RngFaultError", "SingularityMismatch",
        "TailBoundError",
    ),
    "exp_family": (
        "ExpCrmLikelihood", "ExpCrmPrior", "FixedAtomParams", "ValidityResult", "WeightDomain",
        "auto_conjugate", "fixed_atom_density", "log_conjugate_kernel", "log_partition_B",
        "weight_rate_density",
    ),
    "marginal": (
        "MarginalConfig", "MarginalSampler", "new_atom_rate", "predictive_logpmf",
    ),
    "measures": (
        "Atom", "Location", "ObservationAtom", "ObservationMeasure", "TraitMeasure",
        "TruncationMeta",
    ),
    "posterior": ("PosteriorCrm", "iterated_equals_batch", "posterior_update"),
    "rng": ("RngState", "as_generator"),
    "size_biased": (
        "LabeledDraw", "SizeBiasedConfig", "SizeBiasedSampler", "rate_M", "round_total",
        "weight_dist_params",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
# submodules the package namespace has always offered as attributes
_SUBMODULES = {*_EXPORTS, "quadrature"}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
