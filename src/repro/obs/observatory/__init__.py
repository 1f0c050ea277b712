"""The progress-accuracy observatory: grid scoring and leaderboards.

Built on the trace machinery of :mod:`repro.obs`: every workload-grid
variant (:mod:`repro.workloads.grid`) executes under the Session API with
tracing on, the sealed trace is replayed into exact per-query accuracy
metrics (:mod:`.scoring`), and the per-cell scores aggregate into a
schema-versioned JSON leaderboard (:mod:`.leaderboard`).  The tier-1
board is committed as the experiment registry's ``leaderboard_tier1``
entry, so every estimator or re-optimization change gets its accuracy
trial from ``python -m repro reproduce --check`` and the entry's claims:

    python -m repro.obs leaderboard                  # run tier-1, print
    python -m repro.obs leaderboard --out board.json # ... and save it
"""

from repro.obs.observatory.leaderboard import (
    DEFAULT_RUN_ESTIMATOR,
    LEADERBOARD_SCHEMA,
    Leaderboard,
    LeaderboardCell,
    leaderboard_doc,
    render_aggregates,
    run_leaderboard,
    write_leaderboard,
)
from repro.obs.observatory.scoring import (
    QERROR_FLOOR_SECONDS,
    QueryScore,
    score_candidate_events,
    score_events,
)

__all__ = [
    "DEFAULT_RUN_ESTIMATOR",
    "LEADERBOARD_SCHEMA",
    "Leaderboard",
    "LeaderboardCell",
    "leaderboard_doc",
    "render_aggregates",
    "run_leaderboard",
    "write_leaderboard",
    "QERROR_FLOOR_SECONDS",
    "QueryScore",
    "score_candidate_events",
    "score_events",
]
