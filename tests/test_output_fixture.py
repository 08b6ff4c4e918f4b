"""Every file `run-all` writes on the small run, status.txt aside, must keep
the pinned bytes in both mask modes, checkpoints included, so a refactor
shows any moved bit of any output. The run is made with one BLAS thread,
whatever the test process itself runs with."""

import json

import pytest

from regen_fixtures import OUTPUTS_FIXTURE, REGEN_HINT, one_thread_record


@pytest.fixture(scope="module")
def records():
    if not OUTPUTS_FIXTURE.exists():
        pytest.fail(f"missing {OUTPUTS_FIXTURE}; regenerate it with "
                    f"`{REGEN_HINT} small_run_outputs`")
    return (json.loads(OUTPUTS_FIXTURE.read_text(encoding="utf-8")),
            one_thread_record("small_run_outputs_record"))


@pytest.mark.parametrize("mode", ["unstructured", "structured"])
def test_run_all_outputs_match_pinned_bytes(records, mode):
    expected, actual = records
    assert set(actual[mode]) == set(expected[mode])
    moved = sorted(name for name in expected[mode] if actual[mode][name] != expected[mode][name])
    assert not moved, f"files with moved bytes: {moved}"
