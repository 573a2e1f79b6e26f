"""Which public functions the traced run wraps, and under which span names.

Two sets: the in-process campaign path (``Campaign.run`` of a spec list)
and the service parent (``repro serve`` or an in-process
``CampaignService``).  Span names are ``<layer>.<what>``; the layer is
the ``repro`` subpackage the function lives in.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional, Tuple

from spans import SpanRecorder


def install_campaign(recorder: SpanRecorder) -> None:
    """Spans around the serial ``Campaign.run`` path, one root per spec.

    ``execute_spec`` opens each spec's root span; a running index keeps
    IDs distinct when a spec list holds the same spec twice.
    """
    from repro.bus.simulator import CanBusSimulator
    from repro.experiments import campaign
    from repro.experiments.scenarios import ExperimentSetup
    from repro.obs.probe import BusProbe
    from repro.trace.framelog import FrameLog

    counter = itertools.count()

    def spec_root(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> str:
        spec = args[0]
        return f"{next(counter)}:{spec.name}@{spec.seed}"

    recorder.wrap(campaign, "execute_spec", "experiments.execute_spec",
                  spec_of=spec_root)
    recorder.wrap(campaign.ScenarioSpec, "build", "experiments.build")
    recorder.wrap(ExperimentSetup, "run", "experiments.run")
    recorder.wrap(CanBusSimulator, "advance", "bus.advance")
    recorder.wrap(FrameLog, "__init__", "trace.framelog")
    recorder.wrap(FrameLog, "busoff_episodes", "trace.framelog")
    recorder.wrap(FrameLog, "busoff_statistics", "trace.framelog")
    recorder.wrap(BusProbe, "summary", "obs.summary")
    recorder.wrap(campaign.CampaignReport, "render", "experiments.report")
    recorder.wrap(campaign.CampaignReport, "to_dict", "experiments.report")


def install_service(recorder: SpanRecorder) -> None:
    """Spans around the service parent's public calls.

    Journal and cache spans carry the spec's content address (the
    journal key), so every span of one spec shares one ID.
    """
    from repro.analysis import purity
    from repro.experiments.campaign import CampaignReport
    from repro.experiments.resultcache import ResultCache
    from repro.experiments.service.journal import WorkJournal, spec_digest
    from repro.experiments.service.service import CampaignService

    def by_spec(position: int):
        def spec_of(args: Tuple[Any, ...],
                    kwargs: Dict[str, Any]) -> Optional[str]:
            return spec_digest(args[position])
        return spec_of

    def by_key(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> str:
        return str(args[1])

    def hit(args: Tuple[Any, ...], kwargs: Dict[str, Any],
            result: Any) -> Dict[str, Any]:
        return {"hit": result is not None}

    def stored(args: Tuple[Any, ...], kwargs: Dict[str, Any],
               result: Any) -> Dict[str, Any]:
        return {"stored": bool(result)}

    recorder.wrap(purity, "build_purity_manifest", "analysis.manifest")
    recorder.wrap(CampaignService, "start", "service.start")
    recorder.wrap(CampaignService, "submit_specs", "service.submit")
    recorder.wrap(ResultCache, "get", "cache.get", spec_of=by_spec(1),
                  attrs_of=hit)
    recorder.wrap(ResultCache, "put", "cache.put", spec_of=by_spec(1),
                  attrs_of=stored)
    for method in ("record_queued", "record_leased", "record_done",
                   "record_failed"):
        recorder.wrap(WorkJournal, method, "service.journal", spec_of=by_key)
    recorder.wrap(CampaignReport, "to_dict", "experiments.report")
