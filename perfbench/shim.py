"""Runs the flexatc CLI inside this process, for the benchmark.

    python3 perfbench/shim.py --mark FILE [--trace FILE] -- <flexatc args>
    python3 perfbench/shim.py --probe

With --mark, the monotonic clock is appended to FILE when the CLI reaches
its (variant, p, seed) grid: the end of set-up.  With --trace, each module's
public functions are wrapped where their callers look them up, the CLI runs
under a root span, and the spans and per-function totals are written to
FILE as JSON.  A boundary that no longer exists is listed as absent.  With
--probe, the machine description is printed as JSON.

The package is imported from the checkout's own `src/`, never from an
installed copy.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (layer, module, qualified name, hot).  Hot boundaries run per iteration:
# their calls are totalled under the nearest enclosing span rather than kept
# as spans of their own, so memory stays bounded on long grids.
BOUNDARIES = (
    ("linalg", "flexatc.linalg", "sym_eig", False),
    ("linalg", "flexatc.linalg", "range_solve", False),
    ("linalg", "flexatc.linalg", "kron_apply", True),
    ("graph", "flexatc.graph", "gen_topology", False),
    ("graph", "flexatc.graph", "metropolis_weights", False),
    ("graph", "flexatc.graph", "lazify", False),
    ("combiners", "flexatc.combiners", "preset", False),
    ("problem", "flexatc.problem", "parse_libsvm", False),
    ("problem", "flexatc.problem", "logistic_instance", False),
    ("problem", "flexatc.problem", "quadratic_instance", False),
    ("problem", "flexatc.problem", "ProblemInstance.grad_stack", True),
    ("problem", "flexatc.problem", "ProblemInstance.mean_grad", True),
    ("problem", "flexatc.problem", "ProblemInstance.objective", True),
    ("solver", "flexatc.solver", "centralized_proxgrad", False),
    ("solver", "flexatc.solver", "run", False),
    ("analysis", "flexatc.analysis", "fixed_point", False),
    ("analysis", "flexatc.analysis", "sweep_certificates", False),
    ("cli", "flexatc.cli", "_result_rows", False),
    ("cli", "flexatc.cli", "_summary_row", False),
    ("cli", "flexatc.cli", "_write_csv", False),
    ("cli", "flexatc.svgplot", "render_convergence_svg", False),
)

# Boundaries whose first argument's length is recorded as bytes processed.
SIZED = frozenset({"problem.parse_libsvm"})

ROOT_SPAN = "cli.main"


class Tracer:
    """In-memory spans (name, start, end, parent) and per-name totals.

    stats[name] = [calls, inclusive seconds, self seconds]; self time is the
    span's duration minus the part its traced children cover.
    under["<enclosing span name>><hot name>"] counts hot calls by cause.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stats: dict[str, list] = {}
        self.under: dict[str, int] = {}
        self.sizes: dict[str, int] = {}
        self._frames: list[list[float]] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, hot: bool = False):
        frames, open_spans, spans = self._frames, self._open, self.spans
        under, clock = self.under, time.perf_counter
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        sized = name in SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sized and args:
                self.sizes[name] = self.sizes.get(name, 0) + len(args[0])
            if hot:
                cause = spans[open_spans[-1]][0] if open_spans else ""
                key = f"{cause}>{name}"
                under[key] = under.get(key, 0) + 1
            else:
                index = len(spans)
                spans.append([name, 0.0, 0.0, open_spans[-1] if open_spans else -1])
                open_spans.append(index)
            frame = [0.0]
            frames.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if frames:
                    frames[-1][0] += duration
                if not hot:
                    open_spans.pop()
                    spans[index][1] = start
                    spans[index][2] = end

        return traced

    def install(self) -> list[str]:
        """Wrap every boundary; returns the names that could not be found."""
        absent = []
        for layer, module_name, qualname, hot in BOUNDARIES:
            name = f"{layer}.{qualname.rsplit('.', 1)[-1]}"
            module = sys.modules.get(module_name)
            owner = module
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                absent.append(name)
                continue
            wrapped = self.wrap(name, original, hot)
            if path:
                setattr(owner, attr, wrapped)
                continue
            # Rebind in every flexatc module that imported the function by
            # name, since callers look it up in their own namespace.
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "flexatc" or mod_name.startswith("flexatc."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
        return absent


def _install_mark(cli, path: str) -> None:
    """Append the monotonic clock to `path` at the grid boundary: on entry to
    `cli._run_grid` and to each `solver.run`, so the earliest mark survives a
    rename of either."""

    def mark(fn):
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            with open(path, "a") as fh:
                fh.write(f"{time.monotonic()!r}\n")
            return fn(*args, **kwargs)

        return marked

    if callable(getattr(cli, "_run_grid", None)):
        cli._run_grid = mark(cli._run_grid)
    solver = sys.modules.get("flexatc.solver")
    if solver is not None and callable(getattr(solver, "run", None)):
        solver.run = mark(solver.run)


def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libs / "*openblas*.so*"))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def probe() -> dict:
    import numpy as np

    # Importing the CLI compiles every module of the package, so the first
    # timed repetition does not pay for writing the bytecode cache.
    import flexatc
    import flexatc.cli  # noqa: F401

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "flexatc": getattr(flexatc, "__version__", "unknown"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads,
        "blas_pins": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--mark", default=None)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("cli_args", nargs="*")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))

    if args.probe:
        print(json.dumps(probe()))
        return 0

    started = time.perf_counter()
    from flexatc import cli

    imported = time.perf_counter()
    if args.mark:
        _install_mark(cli, args.mark)
    if not args.trace:
        return cli.main(args.cli_args)

    tracer = Tracer()
    absent = tracer.install()
    try:
        status = tracer.wrap(ROOT_SPAN, cli.main)(args.cli_args)
    finally:
        Path(args.trace).write_text(json.dumps({
            "startup_s": imported - started,
            "stats": tracer.stats,
            "under": tracer.under,
            "sizes": tracer.sizes,
            "absent": absent,
            "spans": tracer.spans,
        }))
    return status


if __name__ == "__main__":
    sys.exit(main())
