"""One pass of an in-process workload, in a fresh interpreter.

Protocol (stdin/stdout, one JSON line each way)::

    python3 perfbench/program.py [--spans FILE]
    <- {"ready": true}                       imports and registry done
    -> [<spec dict>, ...]                    the spec list (or EOF: exit)
    <- {"wall_s": ..., "cpu_s": ..., "peak_rss_mb": ..., "report": {...}}

The timed part starts when the spec list line has been read and ends
when ``CampaignReport.render`` has returned: a serial ``Campaign.run``
(one worker) of the specs.  With ``--spans`` the public functions of
that path are wrapped in spans (see :mod:`instrument`) and the spans
are written to FILE after the reply.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    from repro.experiments.campaign import Campaign, ScenarioSpec

    recorder = None
    if args.spans:
        from instrument import install_campaign
        from spans import SpanRecorder

        recorder = SpanRecorder()
        install_campaign(recorder)
    print(json.dumps({"ready": True}), flush=True)

    line = sys.stdin.readline()
    if not line.strip():
        return 0
    started = time.perf_counter()
    cpu_started = time.process_time()
    if recorder is not None:
        root = recorder.open("bench.pass")
    specs = [ScenarioSpec.from_dict(entry) for entry in json.loads(line)]
    report = Campaign(specs, n_workers=1).run()
    text = report.render()
    if recorder is not None:
        recorder.close(root)
    wall = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reply = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_kb / 1024.0,
             "rendered_lines": text.count("\n") + 1,
             "report": report.to_dict()}
    with (recorder.span("experiments.report") if recorder is not None
          else contextlib.nullcontext()):
        encoded = json.dumps(reply)
    print(encoded, flush=True)
    if recorder is not None:
        recorder.write(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
