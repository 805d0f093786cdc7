"""Fault-injection framework (single-bit flips in destination registers)."""

from .audit import CoherenceAudit, GroupAudit, SiteProbe, run_coherence_audit
from .campaign import CampaignResult, exhaustive_campaign, random_campaign, run_campaign
from .injector import ADDRESS_BITS, DEFAULT_HANG_FACTOR, FaultInjector, GoldenState
from .model import FaultModel, InjectionSpec, RegisterFileSite, StoreAddressSite
from .outcome import CATEGORIES, Outcome, ResilienceProfile
from .propagation import PropagationRecord, PropagationTracer
from .severity import InjectionRecord, SeverityInjector
from .site import FaultSite, parse_site
from .space import FaultSpace

__all__ = [
    "CATEGORIES",
    "CampaignResult",
    "CoherenceAudit",
    "GroupAudit",
    "PropagationRecord",
    "PropagationTracer",
    "SiteProbe",
    "run_coherence_audit",
    "DEFAULT_HANG_FACTOR",
    "FaultInjector",
    "FaultSite",
    "FaultModel",
    "FaultSpace",
    "GoldenState",
    "InjectionRecord",
    "InjectionSpec",
    "RegisterFileSite",
    "StoreAddressSite",
    "Outcome",
    "ResilienceProfile",
    "SeverityInjector",
    "exhaustive_campaign",
    "parse_site",
    "random_campaign",
    "run_campaign",
]
