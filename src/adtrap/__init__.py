"""Profile-targeted display advertising simulator and the side channel it leaks.

The package models the full loop: page topics feed per-cookie profiles,
profiles qualify affinity audiences, campaigns bid for slots, and the ad
platform hands advertisers windowed per-audience impression counters.
:mod:`adtrap.trap` then shows how an advertiser who also owns a website can
correlate those counters with her visit log and recover individual
visitors' audiences.
"""

from .errors import (
    AdtrapError,
    BudgetError,
    InconsistentObservationsError,
    NotEligibleError,
    SimulationError,
    UnknownIdError,
    ValidationError,
)
from .taxonomy import (
    AffinityAudience,
    InterestCategory,
    Taxonomy,
    Topic,
    audiences_for_interests,
)
from .profile import (
    AdUserProfile,
    Demographics,
    PageProfile,
    ProfileConfig,
    analyze_page,
    fold_warmup,
    record_visit,
)
from .marketplace import (
    Ad,
    AdGroup,
    AuctionOutcome,
    Bid,
    Campaign,
    Candidate,
    CounterReports,
    ImpressionRecord,
    MarketConfig,
    Marketplace,
    REPORT_COLUMNS,
    build_reports,
    effective_value_micros,
    reports_to_rows,
    window_index,
)
from .gdn import VisitLogEntry, Website, serve_page
from .scenario import (
    AttackVisit,
    Scenario,
    UserAgentSpec,
    WarmupVisit,
    load_scenario,
    load_scenario_document,
    load_taxonomy,
    read_scenario_file,
)
from .simulation import (
    RunTrace,
    SWEEP_COLUMNS,
    SimulationEngine,
    attacker_view_reports,
    run_attack,
    run_scenario,
    sweep,
    trace_to_json,
)
from .trap import (
    Assignment,
    AttackSpec,
    AttributionResult,
    GroupStats,
    WindowObservation,
    build_trap_campaign,
    collect_observations,
    group_statistics,
    infer_audiences,
    score_attribution,
    summary_line,
)

__version__ = "0.1.0"
