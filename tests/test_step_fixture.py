"""Seeded stage-2 steps and cross-entropy epochs must reproduce the pinned
gradient and weight hashes and report floats exactly, so a rewrite of the
differentiation code shows any moved bit. The record is computed with one
BLAS thread, whatever the test process itself runs with."""

import json

import pytest

from regen_fixtures import REGEN_HINT, STEP_FIXTURE, one_thread_record


@pytest.fixture(scope="module")
def records():
    if not STEP_FIXTURE.exists():
        pytest.fail(f"missing {STEP_FIXTURE}; regenerate it with "
                    f"`{REGEN_HINT} stage2_step`")
    return (json.loads(STEP_FIXTURE.read_text(encoding="utf-8")),
            one_thread_record("stage2_step_record"))


@pytest.mark.parametrize("part", ["composite_step_loss", "ce_epochs"])
def test_matches_pinned_bits(records, part):
    expected, actual = records
    assert set(actual[part]) == set(expected[part])
    moved = [key for key in expected[part] if actual[part][key] != expected[part][key]]
    assert not moved, f"{len(moved)} of {len(expected[part])} cases moved: {moved}"
