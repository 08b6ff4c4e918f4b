"""The small run's training trajectory must reproduce the pinned values to a
relative tolerance of 1e-9, so a refactor that drifts the search shows here
even when the default run's rounded summary does not move."""

import json
import math

import pytest

from regen_fixtures import REGEN_HINT, TRAJECTORY_FIXTURE, trajectory_record

REL_TOL = 1e-9


def _mismatches(expected, actual, path="trajectory"):
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [m for key in expected
                for m in _mismatches(expected[key], actual[key], f"{path}.{key}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in _mismatches(e, a, f"{path}[{i}]")]
    if not math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=0.0):
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


def test_trajectory_matches_pinned_values():
    if not TRAJECTORY_FIXTURE.exists():
        pytest.fail(f"missing {TRAJECTORY_FIXTURE}; regenerate it with "
                    f"`{REGEN_HINT} trajectory`")
    expected = json.loads(TRAJECTORY_FIXTURE.read_text(encoding="utf-8"))
    mismatches = _mismatches(expected, trajectory_record())
    assert not mismatches, "\n".join(mismatches)
