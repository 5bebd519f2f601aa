"""The corpus of byte pins (``pins.py``), replayed group by group."""

import pytest

import pins


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.slow) if name in pins.SLOW else name
    for name in pins.GROUPS])
def test_group_keeps_its_pins(name):
    assert pins.mismatches(name) == []


def test_a_perturbed_pin_fails_its_group(monkeypatch, capsys):
    # the runner compares every pin: one changed digest fails its group,
    # names the pin, and leaves the other group passing
    digests = dict(pins.HMINUS_DIGESTS)
    digests[1009] = digests[1009][::-1]
    monkeypatch.setattr(pins, "GROUPS", {
        "hminus-digests": (digests, pins.GROUPS["hminus-digests"][1]),
        "queries": pins.GROUPS["queries"]})
    assert pins.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("FAIL hminus-digests: 4 pins")
    assert lines[1].startswith("    1009: replayed ")
    assert lines[2].startswith("ok queries: 22 pins")
    assert lines[3:] == ["mismatched: hminus-digests"]


def test_a_group_without_pins_fails(monkeypatch):
    monkeypatch.setitem(pins.GROUPS, "cli-cold",
                        ({}, pins.GROUPS["cli-cold"][1]))
    assert pins.mismatches("cli-cold") == [
        ("cli-cold", "no pins", "at least one")]
