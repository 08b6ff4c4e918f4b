"""Every file `run-all` writes on the small runs, status.txt aside, must keep
the pinned bytes, checkpoints included, so a refactor shows any moved bit of
any output: the synthetic run in both mask modes, and the IDX run with each
of its corruptions and augment levels. The runs are made with one BLAS
thread, whatever the test process itself runs with."""

import json

import pytest

from regen_fixtures import (IDX_OUTPUTS_FIXTURE, OUTPUTS_FIXTURE, REGEN_HINT,
                            SMALL_IDX_VARIANTS, one_thread_record)


def _records(path, name, fixture):
    if not path.exists():
        pytest.fail(f"missing {path}; regenerate it with `{REGEN_HINT} {fixture}`")
    return json.loads(path.read_text(encoding="utf-8")), one_thread_record(name)


def _assert_same_bytes(expected, actual):
    assert set(actual) == set(expected)
    moved = sorted(name for name in expected if actual[name] != expected[name])
    assert not moved, f"files with moved bytes: {moved}"


@pytest.fixture(scope="module")
def records():
    return _records(OUTPUTS_FIXTURE, "small_run_outputs_record", "small_run_outputs")


@pytest.fixture(scope="module")
def idx_records():
    return _records(IDX_OUTPUTS_FIXTURE, "small_idx_outputs_record", "small_idx_outputs")


@pytest.mark.parametrize("mode", ["unstructured", "structured"])
def test_run_all_outputs_match_pinned_bytes(records, mode):
    expected, actual = records
    _assert_same_bytes(expected[mode], actual[mode])


@pytest.mark.parametrize("variant", sorted(SMALL_IDX_VARIANTS))
def test_idx_run_all_outputs_match_pinned_bytes(idx_records, variant):
    expected, actual = idx_records
    assert set(expected) == set(SMALL_IDX_VARIANTS)
    _assert_same_bytes(expected[variant], actual[variant])
