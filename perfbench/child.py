"""One rcflow CLI command in a fresh process, with the benchmark's hooks.

    python3 child.py <setup|pass|trace> <result.json> <command> --config ... --out ...

`setup` stops at the first field evaluation, `pass` runs the command with
only the untraced pass hooks, and `trace` adds full tracing. The command
itself is `rcflow.cli.main`, so its output files are those of a plain
`python -m rcflow.cli` run. The result file records the exit code, the
pass record, the process's peak RSS and, when traced, the spans.
"""

from __future__ import annotations

import json
import resource
import sys

from tracing import PassRecord, SetupDone, Tracer, install_pass_hooks, install_tracing


def main(argv: list[str]) -> int:
    mode, result_path, cli_args = argv[0], argv[1], argv[2:]
    record = PassRecord(stop_at_first_eval=mode == "setup")
    tracer = Tracer() if mode == "trace" else None

    import rcflow.cli

    install_pass_hooks(record)
    if tracer is not None:
        install_tracing(tracer)
    try:
        code = rcflow.cli.main(cli_args)
    except SetupDone:
        code = 0
    result = {
        "code": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        **record.as_dict(),
    }
    if tracer is not None:
        result["trace"] = tracer.as_dict()
    with open(result_path, "w", encoding="ascii") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
