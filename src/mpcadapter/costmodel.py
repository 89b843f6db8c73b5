"""Closed-form latency/cost models, profiling, and least-squares fitting.

Both communication time and computation time are affine in (h*s, r*s, s, 1):
    time = (c1*h + c2*r + c3) * s + c4
The published WAN coefficients below reproduce the reference latency
estimates to within 0.01 s; LAN coefficients have no published ground
truth and are meant to be fitted from profiles.
"""

import csv
import json
import time
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .nn import AdapterConfig, private_inference, random_features, random_weights
from .runtime import NetworkEnv, check_fields, merge_meters, simulate_latency

ROUNDS_PER_ADAPTER = 26
ROUNDS_TAIL = 3

# Published constants (coefficients in seconds, comm model in GB).
COMM_GB_COEFFS = (0.001153, 0.000187, 0.000578, 0.005692)
WAN_COMM_COEFFS = (0.02117, 0.00344, 0.35828, 0.15541)
WAN_COMP_COEFFS = (0.01711, 0.00121, 0.12311, 0.16581)

# Simple-fine-tuning baseline, published measurements (for reports).
SFT_BASELINE = {
    "comm_gb": 1.55,
    "rounds": 77,
    "wan_comm_time_s": 34.42,
    "wan_total_time_s": 45.38,
}


def _affine(coeffs, h, r, s):
    c1, c2, c3, c4 = coeffs
    return (c1 * h + c2 * r + c3) * s + c4


@dataclass(frozen=True)
class CostCoefficients:
    env: str
    comm: tuple  # (c1, c2, c3, c4)
    comp: tuple

    def comm_time(self, h, r, s):
        return _affine(self.comm, h, r, s)

    def comp_time(self, h, r, s):
        return _affine(self.comp, h, r, s)

    def to_json(self, r2_comm=None, r2_comp=None) -> str:
        return json.dumps({"env": self.env, "comm": list(self.comm),
                           "comp": list(self.comp),
                           "r2_comm": r2_comm, "r2_comp": r2_comp}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CostCoefficients":
        doc = json.loads(text)
        return cls(env=doc["env"], comm=tuple(doc["comm"]), comp=tuple(doc["comp"]))


PUBLISHED_WAN = CostCoefficients(env="WAN", comm=WAN_COMM_COEFFS, comp=WAN_COMP_COEFFS)


@dataclass
class ProfileSample:
    h: int = field(metadata={">=": 1})
    r: int = field(metadata={">=": 1})
    s: int = field(metadata={">=": 1})
    comm_time_s: float = field(metadata={">=": 0})
    comp_time_s: float = field(metadata={">=": 0})
    rounds: int = field(metadata={">=": 0})
    bytes: int = field(metadata={">=": 0})
    __post_init__ = check_fields


def estimate_rounds(config) -> int:
    s = config.s if isinstance(config, AdapterConfig) else int(config)
    if s < 1:
        raise ValueError("s must be >= 1")
    return ROUNDS_PER_ADAPTER * s + ROUNDS_TAIL


def estimate_comm_gb(config: AdapterConfig) -> float:
    return _affine(COMM_GB_COEFFS, config.h, config.r, config.s)


def estimate_latency(config: AdapterConfig,
                     coeffs: CostCoefficients = PUBLISHED_WAN):
    """(comm_time, comp_time, total) in seconds for one inference."""
    comm = coeffs.comm_time(config.h, config.r, config.s)
    comp = coeffs.comp_time(config.h, config.r, config.s)
    return comm, comp, comm + comp


class UnderDeterminedError(ValueError):
    pass


def _design_matrix(samples):
    return np.array([[p.h * p.s, p.r * p.s, p.s, 1.0] for p in samples])


def fit_cost_model(samples, env_label: str = "custom"):
    """Ordinary least squares on regressors (h*s, r*s, s, 1).

    Returns (CostCoefficients, r2_comm, r2_comp).  Requires at least five
    samples with at least two distinct values in each of h, r, s.
    """
    if len(samples) < 5:
        raise UnderDeterminedError(f"need >= 5 samples, got {len(samples)}")
    for dim in ("h", "r", "s"):
        if len({getattr(p, dim) for p in samples}) < 2:
            raise UnderDeterminedError(
                f"samples hold {dim} constant; vary it to identify the model")
    X = _design_matrix(samples)
    if np.linalg.matrix_rank(X) < 4:
        raise UnderDeterminedError("design matrix is rank deficient")

    def ols(y):
        beta, *_ = np.linalg.lstsq(X, y, rcond=None)
        resid = y - X @ beta
        ss_tot = np.sum((y - y.mean()) ** 2)
        r2 = 1.0 - np.sum(resid ** 2) / ss_tot if ss_tot > 0 else 1.0
        return tuple(beta), r2

    comm, r2_comm = ols(np.array([p.comm_time_s for p in samples]))
    comp, r2_comp = ols(np.array([p.comp_time_s for p in samples]))
    return CostCoefficients(env=env_label, comm=comm, comp=comp), r2_comm, r2_comp


def profile_pipeline(configs, env: NetworkEnv, seed: int = 0) -> list:
    """Run the real engine per config; comm_time comes from the latency
    simulator, comp_time from the wall clock."""
    samples = []
    for config in configs:
        rng = np.random.Generator(np.random.PCG64(seed))
        weights = random_weights(config, rng)
        features = [random_features(config, rng)]
        t0 = time.perf_counter()
        result, meters = private_inference(config, weights, features, seed)
        wall = time.perf_counter() - t0
        merged = merge_meters(*meters)
        rounds = result["pipeline_rounds"][0]
        samples.append(ProfileSample(
            h=config.h, r=config.r, s=config.s,
            comm_time_s=simulate_latency(merged, env),
            comp_time_s=wall,
            rounds=rounds, bytes=merged.total_bytes))
    return samples


def save_samples_csv(path, samples):
    """One column per ``ProfileSample`` field, in field order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in fields(ProfileSample))
        writer.writerows(astuple(p) for p in samples)


class CsvFormatError(ValueError):
    """A CSV data file with a missing column or a malformed value."""


def read_records(path, record) -> list:
    """One ``record`` per row of the CSV file at ``path``, each of the
    dataclass's fields read from its column by its type.  A missing column
    or a value the record refuses raises ``CsvFormatError`` naming the line."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            return [record(**{f.name: f.type(row[f.name]) for f in fields(record)})
                    for row in reader]
        except KeyError as e:
            raise CsvFormatError(f"{path}: no column {e}") from None
        except (TypeError, ValueError, csv.Error) as e:
            raise CsvFormatError(f"{path} line {reader.line_num}: {e}") from None


def load_samples_csv(path):
    return read_records(path, ProfileSample)
