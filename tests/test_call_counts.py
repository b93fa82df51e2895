"""One-row training and eval keep their count of Python calls into rau.

At the finite-difference oracle's shape (m=3, n=4, T=5, one row) per-call
bookkeeping, not arithmetic, sets the speed: a call costs about as much as
a small numpy operation. Calls added one at a time, each "within noise" of
a timed run, added up. So these tests count the Python-level calls into the
files of `src/rau/` that one Adam step and one eval item make, after a
warm-up that fills the caches, and hold each count at a ceiling. The count
does not depend on numpy's version, the CPU count or the host's speed.

A change that must add calls raises its ceiling here and says why in
CHANGES.md; a change that removes calls may lower it.
"""

import os
import sys

import numpy as np
import pytest

import rau
from rau.linalg import Rng
from rau.models import build_classifier
from rau.train import evaluate_classifier, make_optimizer, train_epoch_classifier

PACKAGE = os.path.dirname(rau.__file__)
T, M, N, CLASSES = 5, 3, 4, 4
# per cell kind, the most calls into src/rau/ of one B=1 Adam step (a one-row train_epoch_classifier) and of one
# B=1 eval item (a one-row evaluate_classifier)
CEILINGS = {"rau": (249, 141), "gru": (198, 101), "lstm": (166, 87)}


def _calls(run) -> int:
    """The Python function calls, generator resumptions included, into the package's files that run() makes."""
    run()  # the warm-up: the first call at a shape fills the layout caches
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and os.path.dirname(frame.f_code.co_filename) == PACKAGE:
            count += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return count


@pytest.mark.parametrize("kind", sorted(CEILINGS))
def test_one_row_train_step_and_eval_item_stay_under_their_call_counts(kind):
    xs, ys = Rng(1).uniform(-1.0, 1.0, (1, T, M)), np.array([2])
    mdl = build_classifier(kind, M, N, 1, CLASSES, 0.5, Rng(2))
    opt = make_optimizer("adam", mdl, 0.01)
    step = _calls(lambda: train_epoch_classifier(mdl, xs, ys, opt, Rng(3), 1, 1, 3))
    item = _calls(lambda: evaluate_classifier(mdl, xs, ys, 1))
    train_ceiling, eval_ceiling = CEILINGS[kind]
    # each counts at least its T cell steps, so a profile that saw nothing fails too
    assert T < step <= train_ceiling, f"one {kind} Adam step made {step} calls into rau"
    assert T < item <= eval_ceiling, f"one {kind} eval item made {item} calls into rau"
