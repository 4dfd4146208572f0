"""One three-implementation Table I pass in a fresh interpreter.

Usage (from the checkout root, ``src`` on ``PYTHONPATH``)::

    python perfbench/table1_pass.py --order srsue,oai,reference \
        [--mc-cache DIR] [--trace]

Runs ``repro.api.analyze_many`` serially (``jobs=1``) and prints one
JSON object: import time, in-process analysis time, the registry
counters, peak RSS, and per implementation the property count, error
count, detected attacks and a digest of the verdict signature.  With
``--trace`` the layer wrappers of :mod:`layers` are installed first and
their timings are included.  ``--import-only`` stops after the import
(the benchmark's set-up probe).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--order", default="reference,srsue,oai")
    parser.add_argument("--mc-cache", default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    import repro.api as api
    from repro import obs
    import_s = time.perf_counter() - start
    if args.import_only:
        print(json.dumps({"import_s": import_s,
                          "properties": len(api.ALL_PROPERTIES)}))
        return

    recorder = None
    if args.trace:
        import layers
        recorder = layers.install()
    order = args.order.split(",")
    configs = [api.AnalysisConfig(implementation, jobs=1,
                                  mc_cache_dir=args.mc_cache)
               for implementation in order]
    start = time.perf_counter()
    reports = api.analyze_many(configs, jobs=1)
    analyze_s = time.perf_counter() - start

    out = {
        "import_s": import_s,
        "analyze_s": analyze_s,
        "counters": obs.metrics().snapshot()["counters"],
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "reports": {
            implementation: {
                "properties": len(report.results),
                "errors": len(report.errors()),
                "detected": sorted(report.detected_attacks()),
                "signature": hashlib.sha256(
                    repr(report.verdict_signature()).encode()).hexdigest(),
            } for implementation, report in reports.items()},
        "layers": recorder.summary() if recorder is not None else None,
    }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
