"""Golden outputs: the CLI session, SST1/SST2 and one study seed keep their bits.

The stored digests hold for one numpy build, BLAS, CPU model and thread
count (``golden.environment_key``); elsewhere the test is skipped, naming
both keys.  ``python tests/golden.py`` regenerates them.
"""

import json

import pytest

from golden import ROOT, environment_key, run_session, stored_digests


def test_session_outputs_match_the_stored_digests(tmp_path):
    key = environment_key()
    stored, keys = stored_digests(key)
    if stored is None:
        pytest.skip(f"no golden digests for {json.dumps(key)}; stored keys: {json.dumps(keys)}")
    digests = run_session(ROOT / "src", tmp_path)
    changed = sorted(name for name in stored.keys() | digests.keys() if stored.get(name) != digests.get(name))
    assert not changed, f"outputs differ from the golden digests: {changed}"
