"""Integration: a saturation flood is a pure function of its seed.

The registry's ``saturation`` entry commits one run per level; that a
level replays to the same outcome of every submission and the same
interleaving, with the retire-exactly-once audit clean, is checked here
at the smallest level.
"""

from repro.bench import experiments


def test_a_saturation_level_replays_identically():
    audited = experiments.saturation_level(100, shedding=True, audit=True)
    replay = experiments.saturation_level(100, shedding=True)
    assert audited["violations"] == []
    assert audited["signature"] == replay["signature"], "not deterministic"
