"""Job specs, canonical cache keys, and in-worker job execution.

A :class:`JobSpec` is the validated form of one ``POST /v1/jobs``
request.  Validation happens in the server thread (bad requests are
rejected with ``SRV001`` before anything is queued); execution happens
in a sandboxed worker subprocess via :func:`execute_job`, under a fresh
:class:`~repro.serve.session.SessionContext`.

Cache keys are content addresses: the canonical JSON of the request
(kind, workload, size, sorted engine options, fault spec) plus the
engine version, hashed.  Two requests with the same key are guaranteed
the same *design* payload -- the deterministic slice of a result
(cycles, resources, tile vectors, schedule fingerprints, evaluation
count), which excludes wall-clock timing.  :func:`design_fingerprint`
hashes that slice through a JSON round-trip, so an in-process batch run
and a serve-mode payload that took a trip through HTTP normalize
identically -- that is the bit-identity contract the differential tests
assert.

Only ``dse`` and ``verify`` jobs are cacheable: their designs are pure
functions of the request.  ``trace`` re-measures by definition and
``fuzz`` campaigns may be budget-truncated, so both always execute.
"""

from __future__ import annotations

import glob
import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro import faults as _faults

JOB_KINDS = ("dse", "verify", "trace", "fuzz")
CACHEABLE_KINDS = ("dse", "verify")

#: Engine options each kind accepts (anything else is an SRV001 reject).
_OPTION_KEYS = {
    "dse": (
        "device",
        "resource_fraction",
        "clock_ns",
        "cache",
        "max_parallelism",
        "keep_existing_schedule",
        "candidate_timeout_s",
        "time_budget_s",
        "objective",
    ),
    "verify": (),
    "trace": ("dse",),
    "fuzz": (
        "seed",
        "trials",
        "max_directives",
        "time_budget_s",
        "workloads",
        "sizes",
    ),
}

_FAULT_SPEC_KEYS = ("seed", "candidates", "rate", "kinds", "faults")


def known_workloads() -> Tuple[str, ...]:
    """Every registered workload name, sorted (registry-backed)."""
    from repro import workloads

    return workloads.names()


def _validate_dse_options(options: dict, device) -> None:
    """``DseOptions.validate`` on a request's options with its zoo
    ``device`` name resolved, so a bad number is refused before queueing."""
    from repro.dse.options import DseOptions

    try:
        DseOptions(**dict(options, device=device)).validate()
    except TypeError as exc:
        raise ValueError(f"invalid dse options: {exc}") from None


@dataclass
class JobSpec:
    """One validated job request."""

    kind: str
    workload: Optional[str] = None
    size: Optional[int] = None
    options: Dict[str, object] = field(default_factory=dict)
    fault: Optional[Dict[str, object]] = None
    session: Optional[str] = None

    @classmethod
    def from_request(cls, payload: object) -> "JobSpec":
        """Validate a decoded request body; raises ValueError (SRV001)."""
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        unknown = set(payload) - {
            "kind", "workload", "size", "options", "fault", "session", "force",
        }
        if unknown:
            raise ValueError(f"unknown request fields: {sorted(unknown)}")
        kind = payload.get("kind")
        if kind not in JOB_KINDS:
            raise ValueError(f"kind must be one of {JOB_KINDS}, got {kind!r}")
        workload = payload.get("workload")
        if kind != "fuzz" and not workload:
            raise ValueError(f"{kind} jobs require a workload")
        if workload is not None:
            if not isinstance(workload, str):
                raise ValueError("workload must be a string")
            if workload not in known_workloads():
                raise ValueError(f"unknown workload {workload!r}")
        size = payload.get("size")
        if size is not None and (
            not isinstance(size, int) or isinstance(size, bool) or size < 1
        ):
            raise ValueError(f"size must be a positive integer, got {size!r}")
        force = payload.get("force", False)
        if not isinstance(force, bool):
            raise ValueError(f"force must be a JSON boolean, got {force!r}")
        options = payload.get("options") or {}
        if not isinstance(options, dict):
            raise ValueError("options must be an object")
        allowed = _OPTION_KEYS[kind]
        bad = set(options) - set(allowed)
        if bad:
            raise ValueError(
                f"{kind} jobs do not accept options {sorted(bad)}; "
                f"allowed: {sorted(allowed)}"
            )
        device = options.get("device")
        if device is not None:
            # A zoo name (possibly with @percent / @mhz modifiers); the
            # name string is part of the canonical request, so the
            # device is in the cache key automatically.
            if not isinstance(device, str):
                raise ValueError("options.device must be a device name string")
            from repro.hls.device import get_device

            device = get_device(device)  # raises on unknown names / bad modifiers
        if kind == "dse":
            _validate_dse_options(options, device)
        fault = payload.get("fault")
        if fault is not None:
            if kind != "dse":
                raise ValueError("fault injection is only supported on dse jobs")
            if not isinstance(fault, dict):
                raise ValueError("fault must be an object")
            bad = set(fault) - set(_FAULT_SPEC_KEYS)
            if bad:
                raise ValueError(f"unknown fault fields: {sorted(bad)}")
            build_fault_plan(fault)  # raises on malformed specs
        session = payload.get("session")
        if session is not None and not isinstance(session, str):
            raise ValueError("session must be a string id")
        spec = cls(
            kind=kind,
            workload=workload,
            size=size,
            options=dict(options),
            fault=dict(fault) if fault else None,
            session=session,
        )
        return spec

    def as_request(self) -> dict:
        """The canonical request body (JSON-ready, sorted options)."""
        body: Dict[str, object] = {"kind": self.kind}
        if self.workload is not None:
            body["workload"] = self.workload
        if self.size is not None:
            body["size"] = self.size
        if self.options:
            body["options"] = {k: self.options[k] for k in sorted(self.options)}
        if self.fault:
            body["fault"] = {k: self.fault[k] for k in sorted(self.fault)}
        return body

    @property
    def cacheable(self) -> bool:
        return self.kind in CACHEABLE_KINDS

    @property
    def label(self) -> str:
        stem = self.workload or "suite"
        if self.size is not None:
            stem += f"-{self.size}"
        return f"{self.kind}:{stem}"


def cache_key(spec: JobSpec) -> str:
    """Content address of a request: same request, same key, same design.

    The engine version is baked in so a store written by one engine is
    never served by an incompatible one (the DSE005 discipline).
    """
    from repro.dse.checkpoint import ENGINE_VERSION

    canonical = dict(spec.as_request())
    canonical["engine_version"] = ENGINE_VERSION
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def design_fingerprint(design: object) -> str:
    """Stable hash of a design payload, via a JSON round-trip.

    The round-trip collapses representation differences (tuple vs list,
    int-keyed dicts) so an in-process result and one decoded from an
    HTTP response hash identically iff they are the same design.
    """
    normalized = json.loads(json.dumps(design, sort_keys=True))
    blob = json.dumps(normalized, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def build_fault_plan(fault: Optional[dict]):
    """A :class:`repro.faults.FaultPlan` from a request's fault spec.

    Two forms: ``{"faults": [{"kind","candidate","count"?}, ...]}`` for
    an explicit schedule, or ``{"seed": N, "candidates": M, "rate": R,
    "kinds": [...]}`` for a seeded random plan (the chaos-test form).
    """
    if not fault:
        return None
    if "faults" in fault:
        entries = fault["faults"]
        if not isinstance(entries, list):
            raise ValueError("fault.faults must be a list")
        built = []
        for entry in entries:
            if not isinstance(entry, dict) or "kind" not in entry or "candidate" not in entry:
                raise ValueError("each fault needs at least kind and candidate")
            built.append(
                _faults.Fault(
                    entry["kind"], entry["candidate"], entry.get("count", 1)
                )
            )
        return _faults.FaultPlan(built, seed=fault.get("seed"))
    if "seed" not in fault:
        raise ValueError("a random fault spec needs a seed")
    kinds = tuple(fault.get("kinds", _faults.FAULT_KINDS))
    for kind in kinds:
        if kind not in _faults.FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
    return _faults.FaultPlan.random(
        seed=int(fault["seed"]),
        candidates=int(fault.get("candidates", 12)),
        kinds=kinds,
        rate=float(fault.get("rate", 0.25)),
    )


# -- execution (worker side) -------------------------------------------------


def dse_design_payload(result, workload: str, size: Optional[int]) -> dict:
    """The deterministic slice of a DSE result, tagged with its request.

    ``result`` is a :class:`~repro.dse.DseResult` or a
    :class:`~repro.dataflow.dse.DataflowDseResult`; its ``payload()`` is
    the slice.  Shared by the serve worker and the batch side of the
    differential tests, so both compare through the identical
    projection; work counters live in the ``search`` section of a job
    result instead.
    """
    return {"workload": workload, "size": size, **result.payload()}


def _noop_emit(event: dict) -> None:
    pass


def preload() -> None:
    """Import everything a job imports lazily, once, in the server.

    Workers are forks of the server process, so a module loaded here is
    already loaded in every worker; one missing from this list is paid
    for again by every job.  The list mirrors the function-level imports
    of :func:`execute_job`'s helpers (and of the engine beneath them);
    ``tests/serve/test_supervision.py`` fails when it falls behind.
    """
    import numpy.random  # noqa: F401  (fuzz schedule generator)

    import repro.dataflow  # noqa: F401
    import repro.depgraph.footprint  # noqa: F401  (dataflow stream windows)
    import repro.fuzz  # noqa: F401
    import repro.pipeline  # noqa: F401
    import repro.preflight  # noqa: F401
    import repro.util.deadline  # noqa: F401


def execute_job(
    spec: JobSpec,
    journal_path: Optional[str] = None,
    arm_faults: bool = True,
    job_timeout_s: Optional[float] = None,
    emit: Callable[[dict], None] = _noop_emit,
) -> dict:
    """Run one job to completion; returns its result payload.

    Runs in the worker subprocess (under an activated session context).
    ``journal_path`` points into the store's journal directory: a dse
    job checkpoints there and transparently resumes from it when it
    already exists (the retry/restart path); a journal it cannot resume
    is swept over afresh, with ``DSE005`` in ``search.diagnostics``.
    ``arm_faults=False`` disarms the request's fault spec -- retries
    after an injected crash run fault-free, matching the chaos-resume
    idiom of the batch layer.

    The payload separates ``design`` (deterministic, cache-safe) from
    ``timing`` (wall clock, never compared).
    """
    if spec.kind == "dse":
        return _execute_dse(spec, journal_path, arm_faults, job_timeout_s, emit)
    if spec.kind == "verify":
        return _execute_verify(spec, job_timeout_s, emit)
    if spec.kind == "trace":
        return _execute_trace(spec, job_timeout_s, emit)
    if spec.kind == "fuzz":
        return _execute_fuzz(spec, job_timeout_s, emit)
    raise ValueError(f"unknown job kind {spec.kind!r}")


def _execute_dse(spec, journal_path, arm_faults, job_timeout_s, emit) -> dict:
    import time

    from repro import workloads
    from repro.diagnostics import DiagnosticError
    from repro.dse.options import DseOptions

    emit({"stage": "build", "workload": spec.workload})
    workload = workloads.get(spec.workload, spec.size)
    # A dataflow design journals one file per stage, ``<journal>.<stage>``.
    resume = bool(journal_path) and bool(glob.glob(glob.escape(journal_path) + "*"))
    plan = build_fault_plan(spec.fault) if arm_faults else None
    overrides = dict(spec.options)
    device_name = overrides.pop("device", None)
    if device_name is not None:
        from repro.hls.device import get_device

        overrides["device"] = get_device(device_name)
    time_budget = overrides.pop("time_budget_s", None)
    if job_timeout_s is not None:
        # The job timeout feeds the engine's own Deadline machinery: the
        # sweep degrades gracefully (DSE004) instead of being killed.
        time_budget = min(time_budget, job_timeout_s) if time_budget else job_timeout_s
    options = DseOptions(
        checkpoint=journal_path,
        resume=resume,
        fault_plan=plan,
        time_budget_s=time_budget,
    )
    if overrides:
        options = options.replace(**overrides)
    emit({"stage": "search", "resumed": resume, "faults": plan is not None})
    started = time.perf_counter()
    rejected = []
    try:
        result = workload.auto_DSE(options=options)
    except DiagnosticError as exc:
        if not resume or exc.code != "DSE005":
            raise
        # The journal is this key's own: a kill between its creation and
        # its header leaves it empty or torn, and every later request for
        # the key would fail the same way.  A fresh sweep replaces it.
        rejected, resume = [exc.code], False
        plan = build_fault_plan(spec.fault) if arm_faults else None
        result = workload.auto_DSE(options=options.replace(resume=False, fault_plan=plan))
    wall_s = time.perf_counter() - started
    emit({"stage": "done", "evaluations": result.evaluations})
    return {
        "kind": "dse",
        "design": dse_design_payload(result, spec.workload, spec.size),
        "search": {
            "evaluations": result.evaluations,
            "degraded": result.degraded,
            "feasible": result.feasible,
            "quarantine": [q.diagnostic.code for q in result.quarantine],
            "diagnostics": rejected + [d.code for d in result.diagnostics],
        },
        "timing": {
            "wall_s": round(wall_s, 6),
            "dse_time_s": round(result.dse_time_s, 6),
            "resumed": resume,
        },
    }


def _execute_verify(spec, job_timeout_s, emit) -> dict:
    import time

    from repro import workloads

    emit({"stage": "build", "workload": spec.workload})
    function = workloads.get(spec.workload, spec.size)
    started = time.perf_counter()
    with _job_deadline(job_timeout_s):
        engine = function.verify()
    wall_s = time.perf_counter() - started
    emit({"stage": "done", "errors": engine.has_errors})
    return {
        "kind": "verify",
        "design": {
            "workload": spec.workload,
            "size": spec.size,
            "ok": not engine.has_errors,
            "diagnostics": [
                {
                    "severity": d.severity.label,
                    "code": d.code,
                    "message": d.message,
                }
                for d in engine.diagnostics
            ],
        },
        "timing": {"wall_s": round(wall_s, 6)},
    }


def _execute_trace(spec, job_timeout_s, emit) -> dict:
    import time

    from repro import trace as _trace
    from repro import workloads

    emit({"stage": "build", "workload": spec.workload})
    function = workloads.get(spec.workload, spec.size)
    tracer = _trace.Tracer()
    started = time.perf_counter()
    with _trace.tracing(tracer), _job_deadline(job_timeout_s):
        if spec.options.get("dse"):
            function.auto_DSE()
        else:
            function.estimate()
    wall_s = time.perf_counter() - started
    counters, _histograms = tracer.metrics.as_plain()
    by_category: Dict[str, int] = {}
    for span in tracer.spans:
        by_category[span.category] = by_category.get(span.category, 0) + 1
    emit({"stage": "done", "spans": len(tracer.spans)})
    return {
        "kind": "trace",
        "design": {
            "workload": spec.workload,
            "size": spec.size,
            "spans": len(tracer.spans),
            "spans_by_category": {k: by_category[k] for k in sorted(by_category)},
            "counters": {k: counters[k] for k in sorted(counters)},
        },
        "timing": {"wall_s": round(wall_s, 6)},
    }


def _execute_fuzz(spec, job_timeout_s, emit) -> dict:
    import time

    from repro.fuzz import FuzzOptions, run_campaign

    overrides = dict(spec.options)
    if spec.workload is not None:
        overrides.setdefault("workloads", [spec.workload])
    if spec.size is not None:
        overrides.setdefault("sizes", [spec.size])
    time_budget = overrides.pop("time_budget_s", None)
    if job_timeout_s is not None:
        time_budget = min(time_budget, job_timeout_s) if time_budget else job_timeout_s
    options = FuzzOptions(time_budget_s=time_budget)
    for key, value in overrides.items():
        setattr(options, key, value)
    options.validate()
    emit({"stage": "campaign", "trials": options.trials, "seed": options.seed})
    started = time.perf_counter()
    campaign = run_campaign(options)
    wall_s = time.perf_counter() - started
    summary = campaign.summary_dict()
    elapsed = summary.pop("elapsed_s", None)
    emit({"stage": "done", "passed": campaign.passed})
    return {
        "kind": "fuzz",
        "design": summary,
        "timing": {"wall_s": round(wall_s, 6), "campaign_s": elapsed},
    }


def _job_deadline(job_timeout_s: Optional[float]):
    """A cooperative deadline scope for kinds without their own budget."""
    from repro.util.deadline import Deadline, deadline_scope

    if job_timeout_s is None:
        from contextlib import nullcontext

        return nullcontext()
    return deadline_scope(Deadline(job_timeout_s))
