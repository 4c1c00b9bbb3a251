"""Config fuzzing: any JSON a user may write ends in a clean exit.

Each example changes one to four keys of a tiny valid config, sections
included, to values of every JSON kind, and runs the CLI on it. The run must
exit 0 (ran), 2 (config error) or 3 (simulation abort), with no traceback and
no warning (the tier-1 filter turns a warning into an error). Counts come
only from 0, -1 and 2, so no example allocates more than a few MB: a huge
count is a resource limit, not a parse error, and is not drawn.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from fairdpfed.cli import main
from fairdpfed.harness import config_from_dict, config_to_dict

TINY = json.loads(json.dumps(config_to_dict(config_from_dict({
    "data": {"n_examples": 40, "n_features": 3},
    "federation": {"K": 2, "T": 2, "batch_size": 8},
}))))

# (section, key); key None replaces the whole section
KEYS = ([(section, key) for section, body in TINY.items() for key in body]
        + [(section, None) for section in TINY]
        + [("federation", "bogus"), ("data", "extra"), ("nosuchsection", None)])

NUMBERS = [0, -1, 2, 0.5, math.nan, math.inf, -math.inf, 1e300, -1e300]
STRINGS = ["", "x", "inf", "iid", "dirichlet_label_skew", "logistic_regression",
           "mlp_1hidden", "fixed", "median_adaptive", "clean", "label_flip",
           "update_scale", "replace_one"]
LISTS = [[], [0], [0, 1], [-1], [True], ["0"], [0.5]]
VALUES = [None, True, False, *NUMBERS, *STRINGS, *LISTS, {}, {"K": 2}, {"x": None}]
# most values are the wrong kind for a given key: half the draws take one of
# the key's own kind, so that many examples get past the checks and run
OWN_KIND = {bool: [True, False], int: [0, -1, 2], float: NUMBERS, str: STRINGS,
            list: LISTS, dict: [{}, {"K": 2}, {"x": None}]}


@st.composite
def edit(draw):
    section, key = draw(st.sampled_from(KEYS))
    body = TINY.get(section)
    current = body if key is None or body is None else body.get(key)
    own = OWN_KIND.get(type(current), VALUES)
    return (section, key), draw(st.sampled_from(VALUES) | st.sampled_from(own))


# one to four distinct keys, fewer more often: each edit may end the run early
EDITS = st.sampled_from([1, 1, 1, 2, 2, 3, 4]).flatmap(
    lambda n: st.lists(edit(), min_size=n, max_size=n, unique_by=lambda e: e[0]))


def edited(edits) -> dict:
    doc = json.loads(json.dumps(TINY))
    for (section, key), value in edits:
        value = copy.deepcopy(value)  # the drawn lists and dicts are shared
        if key is None:
            doc[section] = value
        elif isinstance(doc.get(section), dict):
            doc[section][key] = value
        else:
            doc[section] = {key: value}
    return doc


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(EDITS)
def test_any_config_ends_in_a_clean_exit(edits):
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(stderr):
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(edited(edits)))
        rc = main(["--quiet", "--out", str(Path(tmp) / "run"), "run", str(path)])
    err = stderr.getvalue()
    assert rc in (0, 2, 3), err
    assert "Traceback" not in err
    assert rc == 0 or err.startswith(("config error:", "simulation abort:"))
