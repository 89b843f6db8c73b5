"""Latency-constrained architecture search over (h, r, s).

A categorical policy over valid (heads, rank) pairs is trained with
REINFORCE against a reward of utility + 1/latency; the adapter count s is
escalated only when the inner search stalls or when growing h/r would
cost more than stacking another adapter.  A brute-force enumerator serves
as the validation oracle.
"""

import math
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .costmodel import CsvFormatError, read_records
from .runtime import check_fields

DEMO_TABLE = Path(__file__).parent / "data" / "demo_utility.csv"
LEARNING_RATE = 0.1
BASELINE_DECAY = 0.9  # EMA weight of the old reward baseline
S_STEP = 1  # adapters added when the search escalates s


class EvaluatorError(RuntimeError):
    pass


@dataclass(frozen=True)
class SearchSpace:
    heads: tuple
    ranks: tuple
    s_max: int = field(metadata={">=": 1})

    def __post_init__(self):
        check_fields(self)
        if min(self.heads + self.ranks, default=0) < 1 or not self.valid_pairs():
            raise ValueError("heads and ranks must be >= 1, and some rank "
                             "divisible by some head count")

    @property
    def h_init(self) -> int:
        return min(self.heads)

    @property
    def r_init(self) -> int:
        return min(self.ranks)

    def valid_pairs(self) -> list:
        """(h, r) combinations with r divisible by h."""
        return [(h, r) for h in sorted(self.heads) for r in sorted(self.ranks)
                if r % h == 0]

    def configs(self):
        for s in range(1, self.s_max + 1):
            for h, r in self.valid_pairs():
                yield (h, r, s)


@dataclass(frozen=True)
class SearchTargets:
    utility: float = field(metadata={">": 0})
    latency_s: float = field(metadata={">": 0})
    patience: int = field(metadata={">": 0})
    __post_init__ = check_fields


@dataclass
class SearchResult:
    h: int = None
    r: int = None
    s: int = None
    utility: float = None
    feasible: bool = False
    samples: int = 0
    evaluations: list = field(default_factory=list)  # (h, r, s, utility)


class Controller:
    """Softmax policy over valid pairs, REINFORCE with an EMA baseline."""

    def __init__(self, pairs, seed: int = 0):
        if not pairs:
            raise ValueError("no valid (h, r) pairs")
        self.pairs = list(pairs)
        self.theta = np.zeros(len(self.pairs))
        self.baseline = None
        self._rng = np.random.Generator(np.random.PCG64(seed))

    def probabilities(self) -> np.ndarray:
        z = self.theta - self.theta.max()
        e = np.exp(z)
        return e / e.sum()

    def sample(self):
        idx = self._rng.choice(len(self.pairs), p=self.probabilities())
        return self.pairs[idx]

    def update(self, pair, reward: float):
        if not math.isfinite(reward):
            raise ValueError(f"non-finite reward {reward}")
        if self.baseline is None:
            self.baseline = reward
        advantage = reward - self.baseline
        idx = self.pairs.index(pair)
        probs = self.probabilities()
        # d/dtheta log pi(pair): one-hot minus probabilities
        grad = -probs
        grad[idx] += 1.0
        self.theta += LEARNING_RATE * advantage * grad
        self.baseline = BASELINE_DECAY * self.baseline + (1 - BASELINE_DECAY) * reward


class ExhaustiveController:
    """Deterministically cycles all valid pairs (cheapest first).

    Used to make oracle-equivalence tests deterministic; updates are
    no-ops.
    """

    def __init__(self, pairs, order_key=None):
        self.pairs = sorted(pairs, key=order_key) if order_key else list(pairs)
        self._i = 0

    def sample(self):
        pair = self.pairs[self._i % len(self.pairs)]
        self._i += 1
        return pair

    def update(self, pair, reward):
        pass


# ---------------------------------------------------------------------------
# utility evaluators

@dataclass(frozen=True)
class UtilityEntry:
    """One row of a utility table."""
    h: int = field(metadata={">=": 1})
    r: int = field(metadata={">=": 1})
    s: int = field(metadata={">=": 1})
    utility: float = field(metadata={">=": 0, "<=": 1})
    __post_init__ = check_fields


class TableEvaluator:
    """Lookup table keyed by (h, r, s); utilities in [0, 1]."""

    def __init__(self, table: dict):
        self.table = dict(table)

    @classmethod
    def from_csv(cls, path) -> "TableEvaluator":
        """One ``UtilityEntry`` per row; a malformed file, or two rows of one
        (h, r, s), raises ``costmodel.CsvFormatError``."""
        lines, table = {}, {}
        for line, e in read_records(path, UtilityEntry).items():
            key = (e.h, e.r, e.s)
            if key in lines:
                raise CsvFormatError(f"{path} lines {lines[key]} and {line} both "
                                     f"give (h, r, s) = {key}")
            lines[key], table[key] = line, e.utility
        return cls(table)

    def __call__(self, h, r, s) -> float:
        try:
            u = self.table[(h, r, s)]
        except KeyError:
            raise EvaluatorError(f"no utility entry for (h={h}, r={r}, s={s})")
        if not 0.0 <= u <= 1.0:
            raise EvaluatorError(f"utility {u} outside [0, 1]")
        return u


class CommandEvaluator:
    """External command evaluator: ``cmd --h H --r R --s S`` printing a
    single decimal on stdout."""

    def __init__(self, argv):
        self.argv = list(argv)

    def __call__(self, h, r, s) -> float:
        cmd = self.argv + ["--h", str(h), "--r", str(r), "--s", str(s)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as e:
            raise EvaluatorError(f"evaluator {cmd} cannot start: {e}") from None
        if proc.returncode != 0:
            raise EvaluatorError(
                f"evaluator {cmd} exited {proc.returncode}: {proc.stderr.strip()}")
        try:
            u = float(proc.stdout.strip())
        except ValueError:
            raise EvaluatorError(f"evaluator printed {proc.stdout!r}, not a number")
        if not 0.0 <= u <= 1.0:
            raise EvaluatorError(f"utility {u} outside [0, 1]")
        return u


# ---------------------------------------------------------------------------
# search strategies

def nas_search(targets: SearchTargets, latency_fn, space: SearchSpace,
               evaluator, seed: int = 0, controller=None,
               max_samples: int = None) -> SearchResult:
    """Controller-guided search.

    Outer loop over the adapter count s; inner loop samples (h, r) pairs.
    A sampled pair whose modeled latency exceeds the latency target, or
    exceeds the cost of escalating to s + S_STEP adapters at the reference
    pair, is rewarded only by 1/latency and never evaluated.  Patience
    (consecutive non-improving samples) moves the search to the next s.
    Returns early as soon as the utility target is met.
    """
    if controller is None:
        controller = Controller(space.valid_pairs(), seed=seed)
    result = SearchResult(utility=-math.inf)
    s = 1
    while s <= space.s_max:
        tau = 0
        while True:
            if max_samples is not None and result.samples >= max_samples:
                result.feasible = result.h is not None
                return result
            h, r = controller.sample()
            result.samples += 1
            lat = latency_fn(h, r, s)
            escalate_cost = latency_fn(space.h_init, space.r_init, s + S_STEP)
            if lat > escalate_cost or lat > targets.latency_s:
                reward = 1.0 / lat
                tau += 1
            else:
                u = evaluator(h, r, s)
                result.evaluations.append((h, r, s, u))
                reward = u + 1.0 / lat
                tau += 1
                if u > result.utility:
                    result.h, result.r, result.s, result.utility = h, r, s, u
                    tau = 0
                if result.utility >= targets.utility:
                    result.feasible = True
                    return result
            controller.update((h, r), reward)
            if tau >= targets.patience:
                break
        s += 1
    result.feasible = result.h is not None
    return result


def brute_force_search(targets: SearchTargets, latency_fn, space: SearchSpace,
                       evaluator) -> SearchResult:
    """Exhaustive oracle: minimal-latency config with utility >= target
    among those within the latency budget; ties broken by (s, h*r, h).
    Falls back to the max-utility config in budget; ``feasible`` is False
    when nothing fits the budget."""
    result = SearchResult()
    best_meeting = None   # (latency, s, h*r, h, config, u)
    best_utility = None   # (-u, latency, s, h*r, h, config)
    for h, r, s in space.configs():
        lat = latency_fn(h, r, s)
        if lat > targets.latency_s:
            continue
        u = evaluator(h, r, s)
        result.evaluations.append((h, r, s, u))
        key_u = (-u, lat, s, h * r, h)
        if best_utility is None or key_u < best_utility[0]:
            best_utility = (key_u, (h, r, s), u)
        if u >= targets.utility:
            key = (lat, s, h * r, h)
            if best_meeting is None or key < best_meeting[0]:
                best_meeting = (key, (h, r, s), u)
    chosen = best_meeting or best_utility
    if chosen is None:
        return result  # no feasible config
    _, (result.h, result.r, result.s), result.utility = chosen
    result.feasible = True
    return result


def latency_model_fn(coeffs):
    """Adapt CostCoefficients to the (h, r, s) -> seconds callable the
    search expects."""
    def fn(h, r, s):
        return coeffs.comm_time(h, r, s) + coeffs.comp_time(h, r, s)
    return fn
