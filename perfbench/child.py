"""One benchmark child: a fresh process that runs ``squeezed_lasing.cli.main``.

    python3 perfbench/child.py RECORD [--trace] [--setup-only] -- SIMULATE-ARGS

RECORD receives a JSON object with ``perf_counter`` stamps (the clock is
CLOCK_MONOTONIC, shared by every process, so the parent can subtract its
own spawn time), the exit code of ``cli.main`` and, with ``--trace``, the
spans and counters of :mod:`tracing`.  ``--setup-only`` stops right after
the CLI has built its configuration and records the machine instead.
The exit code is the CLI's.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


class _SetupDone(BaseException):
    """Raised out of ``cli.main`` once a set-up probe has its config."""


def machine() -> dict:
    """Versions and the BLAS this process actually loaded."""
    import ctypes
    import os
    import platform
    import re

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    loaded = []
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if re.match(r"lib.*blas", os.path.basename(
                                line.split()[-1]), re.IGNORECASE)})
    except OSError:
        paths = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    entry["threads"] = threads()
                    entry["config"] = config().decode().strip()
        loaded.append(entry)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_loaded": loaded,
    }


def main(argv: list[str]) -> int:
    split = argv.index("--")
    record_path, *flags = argv[:split]
    cli_argv = argv[split + 1:]
    record: dict = {"t_start": T_START}

    import squeezed_lasing  # noqa: F401 - the import every user pays
    from squeezed_lasing import cli

    record["t_imported"] = time.perf_counter()
    build_config = cli.build_config

    def timed_build_config(*args, **kwargs):
        config = build_config(*args, **kwargs)
        record.setdefault("t_configured", time.perf_counter())
        if "--setup-only" in flags:
            raise _SetupDone
        return config

    cli.build_config = timed_build_config
    tracer = None
    if "--trace" in flags:
        from tracing import Tracer  # beside this file, on sys.path[0]

        tracer = Tracer()
        tracer.install()
    try:
        code = cli.main(cli_argv)
    except _SetupDone:
        code = 0
        record["machine"] = machine()
    except Exception:  # noqa: BLE001 - reported through the exit code
        traceback.print_exc()
        code = 1
    finally:
        record["t_end"] = time.perf_counter()
        cli.build_config = build_config
        if tracer is not None:
            tracer.restore()
    record["exit_code"] = code
    if tracer is not None:
        record["spans"] = tracer.spans
        record["counts"] = dict(tracer.counts)
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
