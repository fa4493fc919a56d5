import json

from digest_panel import GOLDEN, compute_panel


def _differences(actual: dict, expected: dict) -> list[str]:
    keys = sorted(set(actual) | set(expected))
    return [f"{k}: {expected.get(k)} -> {actual.get(k)}" for k in keys if actual.get(k) != expected.get(k)]


def test_output_digests_match_the_panel():
    outputs, _ = compute_panel()
    diff = _differences(outputs, json.loads(GOLDEN.read_text())["outputs"])
    assert not diff, "\n".join(diff[:20])


def test_round_ledgers_match_the_panel():
    _, ledgers = compute_panel()
    diff = _differences(ledgers, json.loads(GOLDEN.read_text())["ledgers"])
    assert not diff, "\n".join(diff[:20])
