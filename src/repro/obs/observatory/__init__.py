"""The progress-accuracy observatory: grid scoring and leaderboards.

Every workload-grid variant (:mod:`repro.workloads.grid`) executes once
with tracing on, every estimator is replayed over its trace
(:mod:`repro.obs.replay`) and scored (:mod:`.scoring`), and the per-cell
scores aggregate into a JSON leaderboard (:mod:`.leaderboard`).  The tier-1
board is committed as the experiment registry's ``leaderboard_tier1``
entry, so every estimator or re-optimization change gets its accuracy
trial from ``python -m repro reproduce --check`` and the entry's claims:

    python -m repro.obs leaderboard                  # run tier-1, print
    python -m repro.obs leaderboard --out board.json # ... and save it
"""

from repro.obs.observatory.leaderboard import (
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
    score_events,
)

__all__ = [
    "LEADERBOARD_SCHEMA",
    "Leaderboard",
    "LeaderboardCell",
    "leaderboard_doc",
    "render_aggregates",
    "run_leaderboard",
    "write_leaderboard",
    "QERROR_FLOOR_SECONDS",
    "QueryScore",
    "score_events",
]
