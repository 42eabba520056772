"""One benchmark sample, run in a fresh interpreter by ``run.py``.

    python3 child.py RESULT.json [--trace] [--roundtrip MESH] [--import-only] -- CLI ARGS...

Times the import of ``optitomo.cli`` (set-up) and the ``optitomo.cli.main``
call (run), reads the peak resident memory of this process, and writes them
to RESULT.json.  With ``--trace`` the package is wrapped by ``tracer.Tracer``
after the import and the span aggregate is added to the result.  With
``--roundtrip MESH`` the mesh file is read back with ``read_mesh`` and
rewritten after timing, and the result records whether the bytes matched.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("result")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--roundtrip", default=None)
    parser.add_argument("--import-only", action="store_true")
    split = sys.argv.index("--") if "--" in sys.argv else len(sys.argv)
    args = parser.parse_args(sys.argv[1:split])
    argv = sys.argv[split + 1:]

    start = time.perf_counter()
    import optitomo.cli

    result = {"setup_s": time.perf_counter() - start}
    import numpy
    import scipy

    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if not args.import_only:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer().install()
        start = time.perf_counter()
        result["rc"] = optitomo.cli.main(argv)
        result["run_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.report()
        if args.roundtrip is not None and result["rc"] == 0:
            result["roundtrip_ok"] = _roundtrip(args.roundtrip)

    with open(args.result, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


def _roundtrip(path: str) -> bool:
    from optitomo.mesh import read_mesh, write_mesh

    copy = path + ".roundtrip"
    write_mesh(read_mesh(path), copy)
    with open(path, "rb") as a, open(copy, "rb") as b:
        same = a.read() == b.read()
    os.remove(copy)
    return same


if __name__ == "__main__":
    sys.exit(main())
