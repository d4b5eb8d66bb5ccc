"""Run one ebb CLI command in a fresh interpreter and report what it cost.

usage: python3 child.py SRC COMMAND CONFIG OUT_DIR RESULT_JSON [SPANS_NPZ]

Set-up ends once ``ebb.cli`` is imported from SRC and CONFIG is parsed; the
monotonic clock at that moment is reported so the parent can time set-up
from its spawn. The ``ebb.cli.main`` call is then timed in wall and process
CPU time, between two runs of fixed calibration loops that measure the
host's speed around the call. With SPANS_NPZ the call runs traced and the
spans are saved there.
"""

import json
import os
import resource
import sys
import time

def _interpreter_loop():
    import numpy as np

    a = np.arange(16.0).reshape(4, 4)
    acc = 0.0
    for i in range(100_000):
        acc += float((a * 1.0001)[1, 2]) + i * 0.5


def _lapack_loop():
    import numpy as np
    from scipy.linalg import lapack

    n = 201
    off = np.full(n - 1, -1.0 + 0j)
    diag = np.linspace(-1.0, 1.0, n) + 0.1j
    rhs = np.zeros((n, 2), dtype=complex)
    rhs[0, 0] = rhs[-1, 1] = 1.0
    m = np.array([[1.0, 0.5], [0.2, 1.0]], dtype=complex)
    for _ in range(3000):
        lapack.zgtsv(off, diag.copy(), off.copy(), rhs.copy())
        np.linalg.norm(m, 2)


# Two loops of fixed work that use no ebb code: one bound by the interpreter
# and small numpy calls (like the transfer product), one by small LAPACK
# calls (like the per-node Green solve). Slow periods of the host slow them
# by different factors, and the ebb workloads mix both kinds of work.
CALIBRATION_LOOPS = (_interpreter_loop, _lapack_loop)


def calibrate() -> list:
    """(wall, CPU) seconds of each calibration loop."""
    times = []
    for loop in CALIBRATION_LOOPS:
        cpu = time.process_time()
        wall = time.perf_counter()
        loop()
        times.append((time.perf_counter() - wall, time.process_time() - cpu))
    return times


def _blas():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        return None


def main(argv):
    src, command, config, out_dir, result_path = argv[:5]
    spans_path = argv[5] if len(argv) > 5 else None

    import ebb.cli
    import ebb.config

    if not os.path.abspath(ebb.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"ebb was imported from {ebb.cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    ebb.config.parse_config(config)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    cli_main = ebb.cli.main
    tracer = None
    if spans_path:
        from spans import ROOT, Tracer

        tracer = Tracer()
        tracer.install()
        cli_main = tracer.span(ROOT, cli_main)

    calibration = [calibrate()]
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    rc = cli_main([command, "--config", config, "--out", out_dir])
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    calibration.append(calibrate())

    result = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "calibration": calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas": _blas(),
    }
    if tracer is not None:
        result["spans"] = tracer.summary()
        result["counters"] = tracer.counters
        result["absent"] = tracer.absent
        tracer.save(spans_path)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
