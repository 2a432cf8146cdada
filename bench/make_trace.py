"""Replay workloads' set-up step, run in its own process by run.py.

Synthesizes a gcc-profile trace and writes it with `write_trace`, timing
both together as the set-up time, rescaled to the reference host speed
(see hostspeed.py). It runs apart from the process that replays the
trace so that generation does not count toward that process's peak RSS.
Prints one JSON object on stdout.

    python3 bench/make_trace.py --out trace.csv --duration 0.2 --cores 4 \
        --seed 1 [--spans spans.csv]
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hostspeed import HostSpeed  # noqa: E402
from run import sha256_file  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--duration", type=float, required=True)
    ap.add_argument("--cores", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spans", default=None, help="trace the set-up and write spans here")
    args = ap.parse_args()

    from mfoesim import trace

    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.wrap(trace, "synthesize_profile", "trace.synthesize_profile", len)
        tracer.wrap(trace, "write_trace", "trace.write_trace")

    out = Path(args.out)

    def setup() -> int:
        fault_trace = trace.synthesize_profile(
            "gcc", duration_s=args.duration, cores=args.cores, seed=args.seed
        )
        trace.write_trace(fault_trace, str(out))
        return len(fault_trace)

    faults, raw_s, scale = HostSpeed().time(setup)
    result = {
        "setup_s": raw_s * scale,
        "raw_setup_s": raw_s,
        "scale": scale,
        "faults": faults,
        "sha256": sha256_file(out),
    }
    if tracer is not None:
        tracer.restore()
        tracer.write(args.spans)
        # [phase, name, calls, total ns, self ns, outcome], times rescaled
        result["spans"] = [
            [phase, name, calls, total * scale, self_ns * scale, outcome]
            for (phase, name), (calls, total, self_ns, outcome) in tracer.summary().items()
        ]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
