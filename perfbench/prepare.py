"""The set-up step of a workload that trains, run in a process of its own.

    python3 perfbench/prepare.py WORKLOAD SEED WORKDIR SIZES_JSON [TRACE_OP]

Generates the inputs from SEED with ``fusehash.synth``, trains, encodes, and
leaves in WORKDIR the model and codes (written with ``fusehash.storage``) and
the remaining inputs, which the measuring process then loads. With TRACE_OP
the calls are traced under that operation id and the spans are written to
WORKDIR/setup-spans.json. ``workloads.prepare_in_child`` starts this script.
"""

import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    import workloads

    name, seed, workdir, sizes, *trace_op = argv
    workloads.prepare(
        name, workloads.Sizes.from_json(sizes), int(seed), Path(workdir), trace_op[0] if trace_op else None
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
