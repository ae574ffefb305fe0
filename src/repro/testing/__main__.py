"""Command-line entry point: ``python -m repro.testing``.

Examples::

    python -m repro.testing --seed 0 --max-programs 200
    python -m repro.testing --seed nightly --max-seconds 600 \
        --corpus-dir tests/corpus
    python -m repro.testing --seed 0 --only 49   # replay one program

Exit status is 0 when every checked program agrees across all models,
1 on any disagreement or generator bug, and 2 on a usage error —
including a ``batch`` axis on a host that cannot build batch kernels
(no C toolchain, or ``FLEET_NATIVE=off``).
"""

import argparse
import json
import sys

from ..interp.batch import kernel_unavailable
from .differential import DEFAULT_ENGINES, ENGINES
from .engine import ConformanceEngine


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing",
        description="Differential conformance fuzzing of Fleet programs",
    )
    parser.add_argument("--seed", default="0",
                        help="base seed; program i draws from seed:i")
    parser.add_argument("--max-programs", type=int, default=100,
                        help="number of programs to generate and check")
    parser.add_argument("--max-seconds", type=float, default=None,
                        help="stop starting new programs after this long")
    parser.add_argument("--engines", default=",".join(DEFAULT_ENGINES),
                        help="comma-separated software-engine axes "
                             f"({','.join(ENGINES)}); compiled-certified "
                             "compares a fresh certified lowering, "
                             "batch runs each program's streams as one "
                             "ragged batch on its C kernel")
    parser.add_argument("--no-rtl", action="store_true",
                        help="skip the cycle-accurate RTL model")
    parser.add_argument("--no-verilog", action="store_true",
                        help="skip the Verilog emission checks")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report failures without shrinking them")
    parser.add_argument("--corpus-dir", default=None,
                        help="save shrunk repros as JSON under this dir")
    parser.add_argument("--max-failures", type=int, default=5,
                        help="stop after this many distinct failures")
    parser.add_argument("--only", type=int, default=None, metavar="INDEX",
                        help="check a single program index and print it")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress logging")
    options = parser.parse_args(argv)

    engines = tuple(
        name.strip() for name in options.engines.split(",") if name.strip()
    )
    unknown = [name for name in engines if name not in ENGINES]
    if unknown:
        parser.error(
            f"unknown engine(s) {', '.join(unknown)}: "
            f"choose from {', '.join(ENGINES)}"
        )
    if "batch" in engines:
        reason = kernel_unavailable()
        if reason is not None:
            parser.error(f"the batch axis needs a C kernel: {reason}")

    engine = ConformanceEngine(
        seed=options.seed,
        engines=engines,
        max_programs=options.max_programs,
        max_seconds=options.max_seconds,
        rtl=not options.no_rtl,
        verilog=not options.no_verilog,
        corpus_dir=options.corpus_dir,
        shrink_failures=not options.no_shrink,
        max_failures=options.max_failures,
        log=(lambda message: None) if options.quiet
        else (lambda message: print(message, file=sys.stderr)),
    )

    if options.only is not None:
        spec, streams = engine.generate(options.only)
        print(json.dumps({"spec": spec, "streams": streams}, indent=1))
        failure = engine.run_one(options.only)
        if failure is None:
            print(f"program {options.only}: all models agree")
            return 0
        print("FAIL " + failure.summary())
        if failure.shrunk_spec is not None:
            print(json.dumps(
                {"spec": failure.shrunk_spec,
                 "streams": failure.shrunk_streams},
                indent=1,
            ))
        return 1

    report = engine.run()
    print(report.summary())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
