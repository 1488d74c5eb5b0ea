"""The benchmark's request streams, answered in-process, against a golden.

``tests/golden/transcript.json`` (written by ``scripts/transcript.py``)
holds three workloads' set-up and request lines, every reply with its
wall times masked, and what the replies round: each durable job's final
weights and simulated seconds, and each plan entry.  This replays the
golden's own lines -- nothing from ``bench/`` -- through the service's
``Dispatcher`` on a fresh system and compares every answer, so a change
anywhere on the request path (fingerprints, memos, plan cache and store,
checkpoint leases, resumes) that moves an answer fails here.  A change
that means to move one regenerates the golden and says why.
"""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "scripts"))

import transcript  # noqa: E402

with open(transcript.GOLDEN, encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)


@pytest.mark.parametrize("name", sorted(GOLDEN["workloads"]))
def test_replay_answers_as_the_golden(name):
    expected = GOLDEN["workloads"][name]
    actual = transcript.transcribe(
        expected["server_flags"],
        [op["line"] for op in expected["setup"]],
        [(op["line"], op["leased"]) for op in expected["ops"]],
    )
    for part in ("setup", "ops"):
        for want, got in zip(expected[part], actual[part]):
            assert got == want, f"{part}: {want['line']!r}"
    assert actual == expected
