"""The shared-state ownership registry (:mod:`.shared_state`).

What is left of the whole-program flow analyzer: the table of shared
mutable engine objects that the per-file atomicity rules ``REPRO100`` /
``REPRO102`` in :mod:`repro.analysis.rules` read.  The hand-written
source is checked one file at a time; the program a query actually runs
is the text :mod:`repro.executor.fused` generates, which
:mod:`repro.analysis.generated` checks plan by plan under
``python -m repro.analysis verify``.
"""
