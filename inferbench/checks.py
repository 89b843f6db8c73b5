"""Output check and failure accounting, computed after the timed interval.

An input fails if its request raised, if its ``pipeline_rounds`` is not
26 s + 3, or if its logits differ from the fixed-point twin
``nn.pipeline_forward_plain`` by more than ``twin_tolerance``.  Agreement
with the float64 reference ``nn.pipeline_forward_float`` is reported
beside it and does not decide failure; the reference may overflow or
turn NaN, which counts as disagreement.
"""

from dataclasses import dataclass

import numpy as np

from mpcadapter import nn
from mpcadapter.ring import DEFAULT_CONFIG

# The CLI verify command's default max-abs logit error against float64.
FLOAT_REF_TOL = 1e-2

# Local truncation leaves each truncated share within 1 ulp (2^-f) of the
# twin's exact arithmetic shift, and every one of the 26 s + 3 rounds ends
# in such truncations.  Inside the numeric range the weight scaling aims
# for (unit-variance activations, 1/sqrt(fan_in) weights, LayerNorm within
# its inverse-sqrt window), the layers after a round amplify its 1-ulp
# differences by a small factor; 8 ulps per round covers that.  A single
# truncation failure (2^48 ulps), a lost rescale (2^16 ulps) or a tampered
# logit stays far outside the bound.
ULPS_PER_ROUND = 8


def twin_tolerance(workload) -> float:
    return ULPS_PER_ROUND * workload.expected_rounds / DEFAULT_CONFIG.scale


@dataclass
class Reference:
    twin: np.ndarray     # fixed-point twin logits
    float64: np.ndarray  # float64 reference logits


def references(config, weights, pool) -> list:
    """References for every input of the pool, batch by batch."""
    wf = nn.weights_to_float(weights)
    out = []
    with np.errstate(all="ignore"):
        for batch in pool:
            out.append([Reference(nn.pipeline_forward_plain(f, weights, config).to_real(),
                                  nn.pipeline_forward_float(f.to_real(), wf, config))
                        for f in batch])
    return out


def failure(logits, rounds, ref: Reference, expected_rounds, tol):
    """(reason, gap) for one failed input, or None if it passed; gap is the
    max-abs logit difference from the fixed-point twin."""
    if rounds != expected_rounds:
        return "ledger", None
    gap = float(np.max(np.abs(np.asarray(logits) - ref.twin)))
    if not gap <= tol:
        return "twin", gap
    return None


def float_agreement(logits, ref: Reference):
    """(argmax agrees, within FLOAT_REF_TOL) against the float64 reference."""
    if not np.all(np.isfinite(ref.float64)):
        return False, False
    agree = int(np.argmax(logits)) == int(np.argmax(ref.float64))
    return agree, bool(np.max(np.abs(np.asarray(logits) - ref.float64)) <= FLOAT_REF_TOL)


def account(requests, refs, workload):
    """Check every input of every request.

    ``requests`` are dicts with ``batch``, ``error`` and, for requests that
    returned, ``result`` (party 0's result dict).  Returns the counts and,
    under ``failures``, one record per failed input.
    """
    k = workload.inputs_per_request
    tol = twin_tolerance(workload)
    counts = {"attempted": 0, "failed": 0, "raised": 0, "ledger": 0, "twin": 0,
              "ref_argmax_agree": 0, "ref_within_tol": 0}
    failures = []
    for index, req in enumerate(requests):
        counts["attempted"] += k
        result = req["result"]
        if req["error"] is not None:
            reason = "raised"
        elif not len(result["logits"]) == len(result["pipeline_rounds"]) == k:
            reason = "ledger"
        else:
            reason = None
        if reason:
            counts["failed"] += k
            counts[reason] += k
            failures.append({"request": index, "input": None, "reason": reason,
                             "detail": req["error"]})
            continue
        for j, (logits, rounds, ref) in enumerate(zip(
                result["logits"], result["pipeline_rounds"], refs[req["batch"]])):
            failed = failure(logits, rounds, ref, workload.expected_rounds, tol)
            if failed:
                counts["failed"] += 1
                counts[failed[0]] += 1
                failures.append({"request": index, "input": j, "reason": failed[0],
                                 "detail": failed[1]})
            agree, within = float_agreement(logits, ref)
            counts["ref_argmax_agree"] += agree
            counts["ref_within_tol"] += within
    counts["failures"] = failures
    return counts
