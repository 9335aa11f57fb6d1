"""Run one `enclosure` CLI command in this process and record when it got where.

    python3 perfbench/child.py MARKS_JSON TRACE -- <enclosure arguments>

run.py starts this script in a fresh interpreter for every command, with
`src` on PYTHONPATH.  It imports `enclosure.cli` (timed), marks the moment
the indicator engine is built, runs `enclosure.cli.main` and writes its
marks to MARKS_JSON before it exits with the command's exit code.

With TRACE = 1 it first wraps the public functions of each module, by
patching module attributes, so that every call records a span (name,
parent span, start, end).  Nothing under `src/` changes.  Spans stay in
memory until the command has returned.

All times are `time.monotonic()` readings: CLOCK_MONOTONIC is one clock for
every process of the machine, so run.py places them on its own time axis.
"""

import time

T_SCRIPT = time.monotonic()

import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

# (module, attribute, span name, what to note per call).  One span name may
# cover several functions; a function bound under other names in other
# `enclosure` modules is replaced there as well.
TRACED = [
    ("enclosure.config", "load_config", "config.load", None),
    ("enclosure.forward", "solution_empty", "forward.solve", None),
    ("enclosure.forward", "solution_pec", "forward.solve", None),
    ("enclosure.forward", "solution_transmission", "forward.solve", None),
    ("enclosure.mathkit.vsh", "get_transform", "vsh.get_transform",
     lambda L: int(L)),
    ("enclosure.mathkit.vsh", "VshTransform.analyze", "vsh.analyze",
     lambda tr, *a, **k: [tr.L, tr.grid.n_theta]),
    ("enclosure.cgo", "build_probe", "cgo.probe", None),
    ("enclosure.indicator", "cgo_trace", "indicator.trace",
     lambda probe, *a, **k: [*map(float, probe.frame.rho), float(probe.tau)]),
    ("enclosure.indicator", "indicator_value", "indicator.value", None),
    ("enclosure.recon", "estimate_support", "recon.fit", None),
    ("enclosure.recon", "synth_translated", "recon.translate", None),
    ("enclosure.recon", "reconstruct_hull", "recon.hull", None),
    ("enclosure.mathkit.hull", "halfspace_hull", "hull.halfspace", None),
]


class Tracer:
    """Spans as [name, parent index or -1, start, end, note]; one thread."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0,
                          note(*args, **kwargs) if note else None])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
        return traced

    def install(self):
        loaded = [m for name, m in sys.modules.items()
                  if name == "enclosure" or name.startswith("enclosure.")]
        for modname, attr, name, note in TRACED:
            owner = importlib.import_module(modname)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), note))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, note)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)


def main() -> int:
    marks_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit("usage: child.py MARKS_JSON 0|1 -- ARGS...")
    t_import = time.monotonic()
    import enclosure.cli as cli
    t_imported = time.monotonic()

    tracer = Tracer() if trace == "1" else None
    if tracer:
        tracer.install()
    engine_ready = []
    build_engine = cli._engine_for

    def engine_for(config):
        engine = build_engine(config)
        engine_ready.append(time.monotonic())
        return engine

    cli._engine_for = engine_for
    run = tracer.wrap("cli.main", cli.main) if tracer else cli.main
    t_main = time.monotonic()
    rc = run(argv)
    t_done = time.monotonic()

    marks = {"script": T_SCRIPT, "import": [t_import, t_imported],
             "main": [t_main, t_done], "engine_ready": engine_ready,
             "rc": rc, "spans": tracer.spans if tracer else None}
    with open(marks_path, "w", encoding="utf-8") as fh:
        json.dump(marks, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
