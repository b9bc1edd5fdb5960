"""Model configuration files.

A model config is one JSON object naming a catalog family and its
hyperparameters, either in exponential coordinates or in a family's
native ones:

.. code-block:: json

    {
      "likelihood": "poisson",
      "prior": "gamma_process",
      "params": {"mass": 1.0, "xi": -1.0, "lam": 1.0},
      "fixed_atoms": [{"loc": 0.25, "xi": 0.0, "lam": 2.0}],
      "truncation": {"rounds": 1000, "x_max": 50, "eps_tail": 1e-6},
      "seed": 0
    }

``likelihood`` is one of poisson, bernoulli, odds_bernoulli, or
negative_binomial (the last either as ``"negative_binomial(2.5)"`` or
with a separate ``"r"`` field).  ``prior`` is optional and, when given,
must name the conjugate pair's prior.  In place of ``params``, families
with a classical parametrization (bernoulli, negative_binomial) accept
``"native": {"mass": g, "alpha": a, "theta": t}``, and their fixed
atoms accept ``{"loc": l, "rho": p, "sigma": s}``; conversion goes
through the catalog so the two spellings build the same prior.  The
``model`` block of a ``posterior --out`` file is one, from ``with_prior``.

Schema violations (wrong types, unknown keys, unparseable JSON) raise
``ConfigError``: the file itself is broken.  A well-formed file whose
numbers land outside the family's validity region parses fine and fails
in :meth:`ModelConfig.build_prior` with ``InvalidModelError`` naming the
violated assumption.  The CLI maps the first to exit 2, the second to
exit 1.

``config_hash`` fingerprints the parsed content, not the file bytes:
the canonical JSON serialization (sorted keys, no whitespace) of the
normalized config is hashed with SHA-256, so reformatting a file does
not change its identity but any change of meaning does.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace

from .catalog import _NB_ID, CatalogEntry, get_entry
from .errors import ConfigError, DomainError, InvalidModelError
from .exp_family import ExpCrmPrior, FixedAtomParams, auto_conjugate
from .posterior import PosteriorCrm
from .size_biased import _INT64_MAX, DEFAULT_EPS_TAIL, DEFAULT_M_MAX, DEFAULT_X_MAX

__all__ = ["ModelConfig", "parse_model_config"]

_PLAIN_IDS = ("poisson", "bernoulli", "odds_bernoulli")

_TRUNC_DEFAULTS = {"rounds": DEFAULT_M_MAX, "x_max": DEFAULT_X_MAX, "eps_tail": DEFAULT_EPS_TAIL}


def _require_object(data, where: str) -> dict:
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(data).__name__}")
    return data


def _reject_unknown(data: dict, allowed, where: str) -> None:
    extra = set(data) - set(allowed)
    if extra:
        raise ConfigError(
            f"{where} has unknown key(s) {sorted(extra)}; allowed: {sorted(allowed)}"
        )


def _number(data: dict, key: str, where: str, *, integer: bool = False):
    if key not in data:
        raise ConfigError(f"{where} is missing required key {key!r}")
    v = data[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {v!r}")
    if integer:
        if not isinstance(v, int):
            raise ConfigError(f"{where}.{key} must be an integer, got {v!r}")
        return v
    return _float(v, f"{where}.{key}")


def _float(v, what: str) -> float:
    """A JSON number as a finite float; ConfigError for NaN, inf or an int beyond the doubles."""
    try:
        v = float(v)
    except OverflowError:
        raise ConfigError(f"{what} is an integer too large for a float") from None
    if not math.isfinite(v):
        raise ConfigError(f"{what} must be finite, got {v}")
    return v


def _parse_xi(raw, where: str) -> tuple[float, ...]:
    values = raw if isinstance(raw, list) and raw else [raw]
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        return tuple(_float(v, f"{where}.xi") for v in values)
    raise ConfigError(f"{where}.xi must be a number or a nonempty list of numbers, got {raw!r}")


def _parse_family(data: dict) -> tuple[str, float | None]:
    if "likelihood" not in data:
        raise ConfigError("config is missing required key 'likelihood'")
    fam = data["likelihood"]
    if not isinstance(fam, str):
        raise ConfigError(f"'likelihood' must be a string id, got {fam!r}")
    r = data.get("r")
    hit = _NB_ID.match(fam)
    if hit:
        if r is not None:
            raise ConfigError(
                "give the shape either inside the id or as 'r', not both"
            )
        try:
            r = float(hit.group(1))
        except ValueError:
            raise ConfigError(f"cannot parse shape from likelihood id {fam!r}") from None
        return "negative_binomial", r
    if fam == "negative_binomial":
        if r is None:
            raise ConfigError("negative_binomial needs 'r' (or an id like 'negative_binomial(2.5)')")
        if isinstance(r, bool) or not isinstance(r, (int, float)):
            raise ConfigError(f"'r' must be a number, got {r!r}")
        return fam, _float(r, "'r'")
    if fam not in _PLAIN_IDS:
        raise ConfigError(
            f"unknown likelihood id {fam!r}; catalog ids are "
            "poisson, bernoulli, odds_bernoulli, negative_binomial"
        )
    if r is not None:
        raise ConfigError(f"family {fam!r} takes no shape parameter 'r'")
    return fam, None


def _parse_fixed_atom(entry: CatalogEntry, row, i: int) -> dict:
    """One atom spec in either coordinate system, as its normalized row."""
    where = f"fixed_atoms[{i}]"
    row = _require_object(row, where)
    if "loc" not in row:
        raise ConfigError(f"{where} is missing required key 'loc'")
    loc = _number(row, "loc", where)
    keys = set(row) - {"loc"}
    if keys == {"xi", "lam"}:
        xi = list(_parse_xi(row["xi"], where))
        return {"loc": loc, "xi": xi, "lam": _number(row, "lam", where)}
    if keys == {"rho", "sigma"}:
        if not hasattr(entry, "native_fixed_atom"):
            raise ConfigError(
                f"{where}: family {entry.family!r} has no native fixed-atom "
                "parametrization; use 'xi' and 'lam'"
            )
        rho = _number(row, "rho", where)
        return {"loc": loc, "rho": rho, "sigma": _number(row, "sigma", where)}
    raise ConfigError(
        f"{where} must carry exactly 'loc' plus either ('xi', 'lam') or "
        f"('rho', 'sigma'), got keys {sorted(row)}"
    )


@dataclass(frozen=True)
class ModelConfig:
    """A parsed, schema-checked model description.

    Parsing checks shape only; :meth:`build_prior` checks meaning.  The
    ``native`` echo and the ``fixed_atoms`` rows keep whatever coordinate
    system the file used, so the config hash distinguishes the spelling
    but the built prior does not.  ``n_obs`` counts the observations the
    model has absorbed, as a ``posterior --out`` file records them beside
    its ``model`` block; it is no part of the block or its hash.
    """

    family: str
    r: float | None
    params: dict | None
    native: dict | None
    fixed_atoms: tuple[dict, ...]
    rounds: int
    x_max: int
    eps_tail: float
    seed: int
    n_obs: int = 0

    @property
    def entry(self) -> CatalogEntry:
        return get_entry(self.family, self.r)

    def to_jsonable(self) -> dict:
        out: dict = {"likelihood": self.family}
        if self.r is not None:
            out["r"] = self.r
        out["prior"] = self.entry.prior_id
        if self.params is not None:
            out["params"] = self.params
        if self.native is not None:
            out["native"] = self.native
        out["fixed_atoms"] = list(self.fixed_atoms)
        out["truncation"] = {
            "rounds": self.rounds,
            "x_max": self.x_max,
            "eps_tail": self.eps_tail,
        }
        out["seed"] = self.seed
        return out

    def config_hash(self) -> str:
        blob = json.dumps(self.to_jsonable(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def with_prior(self, prior: ExpCrmPrior) -> ModelConfig:
        """This config carrying ``prior``, of its family, in exponential coordinates."""
        return replace(
            self,
            params={"mass": prior.mass, "xi": list(prior.xi), "lam": prior.lam},
            native=None,
            fixed_atoms=tuple(
                {"loc": a.location.value, "xi": list(a.xi), "lam": a.lam}
                for a in prior.fixed_atoms
            ),
        )

    def build_prior(self) -> ExpCrmPrior:
        """Construct and validate the prior this config describes.

        Raises ``InvalidModelError`` naming the violated assumption when
        the (converted) hyperparameters fall outside the family's valid
        region; native-coordinate violations surface under their own
        names via the catalog's converters.  A config with observations
        builds a :class:`~expcrm.posterior.PosteriorCrm` that counts them.
        """
        entry = self.entry
        try:
            atoms = [
                FixedAtomParams(row["loc"], row["xi"], row["lam"])
                if "lam" in row
                else FixedAtomParams(row["loc"], *entry.native_fixed_atom(row["rho"], row["sigma"]))
                for row in self.fixed_atoms
            ]
            if self.native is not None:
                mass, xi, lam = entry.native_params(
                    self.native["mass"], self.native["alpha"], self.native["theta"]
                )
            else:
                mass, xi, lam = self.params["mass"], self.params["xi"], self.params["lam"]
        except DomainError as err:
            raise InvalidModelError(str(err)) from err
        prior = auto_conjugate(entry.make_likelihood(), mass, xi, lam, atoms)
        if not self.n_obs:
            return prior
        return PosteriorCrm(prior.likelihood, mass, xi, lam, atoms, self.n_obs)


def _parse_truncation(data) -> tuple[int, int, float]:
    trunc = dict(_TRUNC_DEFAULTS)
    if data is not None:
        block = _require_object(data, "truncation")
        _reject_unknown(block, _TRUNC_DEFAULTS, "truncation")
        for key in ("rounds", "x_max"):
            if key in block:
                v = _number(block, key, "truncation", integer=True)
                if not 1 <= v <= _INT64_MAX:
                    raise ConfigError(f"truncation.{key} must be in 1..{_INT64_MAX}, got {v}")
                trunc[key] = v
        if "eps_tail" in block:
            v = _number(block, "eps_tail", "truncation")
            if not v > 0.0:
                raise ConfigError(f"truncation.eps_tail must be positive, got {v}")
            trunc["eps_tail"] = v
    return trunc["rounds"], trunc["x_max"], trunc["eps_tail"]


_TOP_KEYS = (
    "likelihood", "prior", "r", "params", "native", "fixed_atoms", "truncation", "seed",
)


def model_config_from_dict(data) -> ModelConfig:
    """Schema-check a decoded config object."""
    data = _require_object(data, "config")
    _reject_unknown(data, _TOP_KEYS, "config")
    family, r = _parse_family(data)
    entry = get_entry(family, r)

    if "prior" in data:
        if data["prior"] != entry.prior_id:
            raise ConfigError(
                f"prior id {data['prior']!r} does not match {family!r}; "
                f"its conjugate prior is {entry.prior_id!r}"
            )

    has_params = "params" in data
    has_native = "native" in data
    if has_params == has_native:
        raise ConfigError("config needs exactly one of 'params' or 'native'")
    params = native = None
    if has_params:
        block = _require_object(data["params"], "params")
        _reject_unknown(block, ("mass", "xi", "lam"), "params")
        params = {
            "mass": _number(block, "mass", "params"),
            "xi": list(_parse_xi(block.get("xi"), "params")),
            "lam": _number(block, "lam", "params"),
        }
    else:
        if not hasattr(entry, "from_native"):
            raise ConfigError(
                f"family {family!r} has no native parametrization; use 'params'"
            )
        block = _require_object(data["native"], "native")
        _reject_unknown(block, ("mass", "alpha", "theta"), "native")
        native = {
            "mass": _number(block, "mass", "native"),
            "alpha": _number(block, "alpha", "native"),
            "theta": _number(block, "theta", "native"),
        }

    atoms_raw = data.get("fixed_atoms", [])
    if not isinstance(atoms_raw, list):
        raise ConfigError(f"fixed_atoms must be a list, got {type(atoms_raw).__name__}")
    atoms = tuple(_parse_fixed_atom(entry, row, i) for i, row in enumerate(atoms_raw))

    rounds, x_max, eps_tail = _parse_truncation(data.get("truncation"))

    seed = data.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must lie in [0, 2**64), got {seed}")

    return ModelConfig(
        family=family,
        r=r,
        params=params,
        native=native,
        fixed_atoms=atoms,
        rounds=rounds,
        x_max=x_max,
        eps_tail=eps_tail,
        seed=seed,
    )


def parse_model_config(path) -> ModelConfig:
    """Read and schema-check a model config file, or a ``posterior --out`` file's model."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: malformed JSON: {err}") from err
    if isinstance(data, dict) and data.keys() == {"header", "n_obs", "model"}:
        n_obs = data["n_obs"]
        if isinstance(n_obs, bool) or not isinstance(n_obs, int) or n_obs < 0:
            raise ConfigError(f"n_obs must be an integer >= 0, got {n_obs!r}")
        return replace(model_config_from_dict(data["model"]), n_obs=n_obs)
    return model_config_from_dict(data)
