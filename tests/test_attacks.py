"""Known holes in what the gateway guarantees, one test per hole.

Each test asserts the safe outcome and is a strict xfail naming the ROADMAP
item that closes the hole: it fails today for the stated reason, and the
change that closes the hole sees it pass and removes the marker.
"""

import pytest

from amiprivacy.gateway import KINDS


@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                   reason="ROADMAP item 18: unknown keys are ignored while protocol_mix "
                          "sends fed_train's seed")
def test_a_misspelled_optional_key_is_refused_at_parse():
    op = {"kind": "dp_query", "op": "count", "epsilon": 0.5, "delat": 0.5}
    with pytest.raises((TypeError, ValueError), match="delat"):
        KINDS["dp_query"].parse(op)  # today: answered at delta 0, the default
