"""Each party's view of a private inference looks uniform on the ring.

Every word a party receives after the handshake is a Beaver opening
``x - a``, a dealer-masked product or a share drawn at random, so each
label's words should be uniform whatever the inputs are.  A view recorder
wraps ``Channel.exchange`` and keeps each party's received words by label;
a chi-square test then checks the top and the bottom byte of every label
with enough words.  An opened truncated share has its top 16 bits fixed, so
its top byte fails at once.  An opened untruncated share is uniform and
passes unseen: that needs a test that re-draws the randomness a party does
not hold.
"""

from collections import defaultdict

import numpy as np
import pytest
from scipy import stats

from mpcadapter.nn import (AdapterConfig, derived_rng, private_inference,
                           random_features, random_weights)
from mpcadapter.ring import FixedTensor
from mpcadapter.runtime import Channel

DESK = AdapterConfig(h=2, r=8, s=1, d_model=32, n_tokens=8)
MIN_WORDS = 512   # 2 expected words per byte value
P_FLOOR = 1e-6    # the smallest honest p-value over seeds 1-3 is 0.016
N_INPUTS = 4


def record_views(monkeypatch, config, features, seed):
    """Run a private inference; return {party: {label: received words}}.
    The handshake, the first setup round, is public configuration and is
    left out."""
    rounds = {0: defaultdict(list), 1: defaultdict(list)}
    exchange = Channel.exchange

    def recording(self, label, send_arrays, recv_shapes=None):
        got = exchange(self, label, send_arrays, recv_shapes)
        rounds[self.party_id][label].append([np.ravel(a) for a in got])
        return got

    monkeypatch.setattr(Channel, "exchange", recording)
    weights = random_weights(config, derived_rng(seed, "weights"))
    private_inference(config, weights, features, seed)
    rounds[0]["setup"].pop(0)
    rounds[1]["setup"].pop(0)
    empty = np.zeros(0, np.uint64)
    return {pid: {label: np.concatenate([empty] + sum(arrays, []))
                  for label, arrays in view.items()}
            for pid, view in rounds.items()}


def byte_p_values(view: dict) -> dict:
    """Chi-square p-value of the top and the bottom byte of each label's
    words, for labels with at least MIN_WORDS words."""
    out = {}
    for label, words in view.items():
        if words.size < MIN_WORDS:
            continue
        for name, byte in (("top", words >> np.uint64(56)), ("bottom", words & np.uint64(255))):
            counts = np.bincount(byte.astype(np.int64), minlength=256)
            out[label, name] = stats.chisquare(counts).pvalue
    return out


@pytest.mark.parametrize("features", ["random", "zero"])
def test_received_words_look_uniform(monkeypatch, features):
    if features == "random":
        irng = derived_rng(1, "inputs")
        feats = [random_features(DESK, irng) for _ in range(N_INPUTS)]
    else:
        feats = [FixedTensor(np.zeros((DESK.n_tokens, DESK.d_model), np.uint64))] * N_INPUTS
    views = record_views(monkeypatch, DESK, feats, seed=1)
    for pid, view in views.items():
        p_values = byte_p_values(view)
        # The online labels of every layer are tested, not just a few.
        assert {"linear", "ln-var", "ln-apply", "a2b-adder"} <= {l for l, _ in p_values}
        worst = min(p_values, key=p_values.get)
        assert p_values[worst] > P_FLOOR, f"party {pid}: {worst} p = {p_values[worst]:.3g}"
