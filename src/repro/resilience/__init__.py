"""repro.resilience — fault injection, retry policies, resumable campaigns.

The paper's Savanna contribution only matters on machines that misbehave:
nodes crash, runs straggle, I/O blips, walltimes kill half-finished
SweepGroups.  This package makes that misbehaviour *injectable* (so
experiments can measure recovery) and the recovery *mechanical* (so no
human services the debt):

- :mod:`repro.resilience.faults` — seeded, deterministic fault injection
  (crash-on-start, mid-run crash, straggler slowdown, transient I/O),
  pluggable into a :class:`~repro.cluster.cluster.SimulatedCluster`;
- :mod:`repro.resilience.policy` — the :class:`RetryPolicy` family
  (fixed delay, exponential backoff with deterministic jitter, per-task
  timeouts, per-allocation retry budgets) consumed by both Savanna
  executors;
- :mod:`repro.resilience.checkpoint` — per-transition records of run
  status in the Cheetah campaign directory's store, so a killed campaign
  resumes exactly its pending runs.

Every retry/timeout/fault/resume decision is narrated on the cluster's
event bus (``task.retry``, ``task.timeout``, ``task.fault_injected``,
``group.resumed``); see ``docs/resilience.md`` for the contract and a
worked trace.
"""

from repro.resilience.checkpoint import CampaignCheckpoint
from repro.resilience.faults import (
    CRASH_ON_START,
    FAULT_KINDS,
    MID_RUN_CRASH,
    STRAGGLER,
    TRANSIENT_IO,
    FaultDecision,
    FaultInjector,
    FaultSpec,
    parse_fault_specs,
)
from repro.resilience.policy import (
    ExponentialBackoffPolicy,
    FixedDelayPolicy,
    RetryPolicy,
    as_policy,
    no_retry,
)

__all__ = [
    "RetryPolicy",
    "FixedDelayPolicy",
    "ExponentialBackoffPolicy",
    "as_policy",
    "no_retry",
    "FaultSpec",
    "FaultDecision",
    "FaultInjector",
    "parse_fault_specs",
    "FAULT_KINDS",
    "CRASH_ON_START",
    "MID_RUN_CRASH",
    "STRAGGLER",
    "TRANSIENT_IO",
    "CampaignCheckpoint",
]
