"""prtrust: trust-signal analytics for GitHub pull requests.

Mines pull-request interaction data and scores six interpersonal-trust
dimensions (action, commitment, competence, institutional, personality,
transferred) per PR, per developer, and per repository.
"""

__version__ = "0.1.0"

from .corpus import (  # noqa: E402,F401
    Comment,
    CommitEvent,
    PullRequest,
    RepoSnapshot,
    Review,
    ReviewRequest,
    UserProfile,
    classify_contribution,
    load_snapshot,
    outcome,
    restrict,
    save_snapshot,
    snapshot_from_dict,
    snapshot_to_dict,
    validate,
)
from .errors import (  # noqa: F401
    AuthError,
    ConfigError,
    FetchError,
    InsufficientStratumError,
    NotFoundError,
    PartialFetchError,
    RateLimitError,
    SnapshotError,
    SnapshotParseError,
    SnapshotValidationError,
    UnknownLoginError,
)
from .metrics import (  # noqa: F401
    DIMENSIONS,
    DimensionScore,
    VouchLexicon,
    action_score,
    commitment_score,
    competence_score,
    default_lexicon,
    institutional_score,
    personality_propensity,
    personality_score,
    transferred_detect,
)
from .config import AnalysisConfig, config_echo, load_config  # noqa: F401
from .aggregate import (  # noqa: F401
    RepoSummary,
    SamplePlan,
    StratumSummary,
    TrustProfile,
    analyze_snapshot,
    build_profile,
    combine_scores,
    stratified_sample,
    summarize,
)
from .report import (  # noqa: F401
    ReportBundle,
    build_bundle,
    csv_text,
    emit,
    format_score,
    json_text,
    load_bundle,
    markdown_summary,
)
from .ingest import FetchPlan, GitHubClient, fetch_snapshot, reconstruct_review_requests  # noqa: F401
