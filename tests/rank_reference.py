"""The per-placeholder ranking the score matrix is checked against: one
placeholder's candidates scored on a use graph built from scratch with that
placeholder unbound, a softmax, and a sort by probability, then symbol id.
It shares nothing with `infer` but `Encoder.scores`."""

import numpy as np

from smartpaste import nn
from smartpaste.models import Encoder


def reference_rank(params, inst, ph, binding, encoder=None):
    """ph's candidates with their conditional probabilities, most probable
    first and equal ones by lower id, every other placeholder bound per
    `binding` (`None` unbinds one, and a token it does not name keeps the
    program's symbol), on a fresh encoder unless `encoder` is given."""
    if encoder is None:
        encoder = Encoder(params, inst.program,
                          placeholder_tokens=inst.placeholder_tokens)
    view = encoder.flow.uses({**binding, ph.token_index: None})
    scores, = encoder.scores([(view, ph.token_index, ph.candidates)])
    probs = nn.softmax_probs(np.array(scores))
    order = sorted(range(len(ph.candidates)),
                   key=lambda i: (-probs[i], ph.candidates[i]))
    return [(ph.candidates[i], float(probs[i])) for i in order]
