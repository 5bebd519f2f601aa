"""The corpus of byte pins (``pins.py``), replayed group by group."""

import os
import signal
import subprocess
import time

import pytest

import pins


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.slow) if name in pins.SLOW else name
    for name in pins.GROUPS])
def test_group_keeps_its_pins(name):
    assert pins.mismatches(name) == []


def test_every_condition_has_a_case():
    assert set(pins.CONDITIONS) == {condition for condition, _ in pins.PROCESS}


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
    assert lines[0].startswith("FAIL hminus-digests: 5 pins")
    assert lines[1].startswith("    1009: replayed ")
    assert lines[2].startswith("ok queries: 22 pins")
    assert lines[3:] == ["mismatched: hminus-digests"]


def test_a_group_without_pins_fails(monkeypatch):
    monkeypatch.setitem(pins.GROUPS, "cli-cold",
                        ({}, pins.GROUPS["cli-cold"][1]))
    assert pins.mismatches("cli-cold") == [
        ("cli-cold", "no pins", "at least one")]


def test_a_perturbed_process_pin_fails_its_group(monkeypatch, capsys):
    # an answer to /dev/full pinned as delivered: the replay's exit 1 and
    # its one stderr line fail the group, which names the case
    key = ("> /dev/full", "hminus --m 39")
    monkeypatch.setattr(pins, "GROUPS", {"process": (
        {key: (0, None, "")}, pins.GROUPS["process"][1])})
    assert pins.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("FAIL process: 1 pins")
    assert lines[1] == f"    {key!r}: replayed {pins.PROCESS[key]!r}, " \
        "pinned (0, None, '')"
    assert lines[2:] == ["mismatched: process"]


def test_a_child_past_its_deadline_is_killed_and_reported(monkeypatch):
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    key = ("modules loaded by", "import time; time.sleep(60)")
    monkeypatch.setattr(pins, "DEADLINE", 0.5)
    monkeypatch.setattr(subprocess, "Popen", Recorded)
    monkeypatch.setitem(pins.GROUPS, "process", (
        {key: (0, "", "")}, pins.GROUPS["process"][1]))
    start = time.monotonic()
    assert pins.mismatches("process") == [
        (key, "killed at its 0.5 s deadline", (0, "", ""))]
    assert time.monotonic() - start < 30
    (child,) = started
    assert child.returncode == -signal.SIGKILL
    with pytest.raises(ProcessLookupError):
        os.kill(child.pid, 0)  # reaped: no process holds the pid
