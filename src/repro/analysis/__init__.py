"""Analysis layer: grouping analytics, profile comparison, table rendering."""

from .grouping import (
    CTADistribution,
    GroupingResult,
    ThreadSeries,
    cta_icnt_grouping,
    cta_outcome_grouping,
    find_target_instructions,
    thread_masked_pct,
    thread_outcome_series,
)
from .report import (
    InstructionVulnerability,
    instruction_vulnerabilities,
    render_report,
)
from .profiles import (
    ProfileComparison,
    average_absolute_errors,
    compare_profiles,
    format_profile_table,
)
from .tables import (
    GroupTableRow,
    format_group_table,
    format_table1,
    format_table7,
    group_table,
)

__all__ = [
    "CTADistribution",
    "GroupTableRow",
    "GroupingResult",
    "InstructionVulnerability",
    "ProfileComparison",
    "ThreadSeries",
    "average_absolute_errors",
    "compare_profiles",
    "cta_icnt_grouping",
    "cta_outcome_grouping",
    "find_target_instructions",
    "format_group_table",
    "format_profile_table",
    "format_table1",
    "format_table7",
    "group_table",
    "instruction_vulnerabilities",
    "render_report",
    "thread_masked_pct",
    "thread_outcome_series",
]
