"""``tests/floor.py`` in-process: the per-replay call counts of every case
stay within a recorded budget, so growth in per-step dispatch fails here
instead of going unseen.

The budgets are the counts measured on CPython 3.11 when the conv became a
row of the op table.  They are upper bounds, not equalities: CPython 3.12
inlines comprehension frames and counts fewer Python calls.  A change that
lowers a count may lower its budget; one that raises a count past it has
added work to every replayed step."""

from . import floor

#: case -> (Python calls, C calls) of one warm replay
BUDGETS = {
    "train/r32-n1": (1943, 640),
    "train/r32-n32": (1943, 640),
    "train/vgg11-w0.25-n32": (492, 229),
    "serve/r32-folded-n1": (446, 79),
    "serve/r32-folded-n8": (446, 79),
}


def test_every_replay_stays_within_its_call_budget():
    assert set(BUDGETS) == set(floor.CASES)
    over = {name: ((py, c), BUDGETS[name])
            for name, py, c in floor.lines()
            if py > BUDGETS[name][0] or c > BUDGETS[name][1]}
    assert not over, over
