"""Compare two saved benchmark results metric by metric.

    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --out base.json
    (change the program)
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --out new.json
    python3 perfbench/compare.py base.json new.json

Bounds and directions come from BENCHMARK.json; a metric it does not list
is compared with bound 0, lower being better.  A metric that is +inf on both
sides (a batch that never completed) is unchanged; +inf to a finite value is
an improvement.  One pair of runs is not a claim: see README.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import compare  # noqa: E402


def _describe(m: dict) -> str:
    if not m:
        return ""
    if "percentile" in m:
        return f"p{m['percentile']:.1f} of {m['samples']}"
    return f"n={m['samples']}" if "samples" in m else ""


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    for workload in sorted(set(base) | set(new)):
        b = base.get(workload, {"metrics": {}})
        n = new.get(workload, {"metrics": {}})
        print(f"== {workload}: failed {b.get('failed')}/{b.get('attempted')} -> "
              f"{n.get('failed')}/{n.get('attempted')}, "
              f"correct {b.get('correct')} -> {n.get('correct')}")
        for name, bv, nv, unit, verdict in compare(b["metrics"], n["metrics"], spec):
            detail = f"{_describe(b['metrics'].get(name))} -> {_describe(n['metrics'].get(name))}"
            print(f"   {name:45s} {bv:>12.6g} -> {nv:<12.6g} {unit:6s} {verdict:12s}"
                  f" {detail if detail != ' -> ' else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
