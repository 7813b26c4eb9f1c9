"""Run `gateway serve` with a span around every public function of the package.

    python3 perfbench/traced_serve.py SPANS_JSON serve --policy ... --data ...

Started in place of the plain entry point, with `src` on PYTHONPATH. Before
`amiprivacy.cli.gateway_main` runs, each public module-level function of
every `amiprivacy` module, plus `Gateway.route`, `BudgetLedger.charge` and
`AuditLog.append_audit`, is replaced by a wrapper that records a span. The
wrapper is bound under every name the function is reachable by, because
modules import each other's functions by name (`dp.interval_totals`,
`cli.parse_csv`, `gateway.serialize_csv`). Spans stay in memory and are
written to SPANS_JSON when the server exits.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
from time import perf_counter_ns

import amiprivacy
from amiprivacy import cli, dp, gateway

# Called once per CSV row inside parse_csv: a span per call would cost about
# as much as the call, and its time stays in parse_csv's self time.
_SKIP = {"meterdata.iso_to_epoch"}

_METHODS = (
    (gateway.Gateway, "route", "gateway.route"),
    (dp.BudgetLedger, "charge", "dp.charge"),
    (gateway.AuditLog, "append_audit", "gateway.append_audit"),
)


class Tracer:
    """In-memory spans: name, start and end in ns, parent span, request_id."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.rids: list[str | None] = []
        self._stack: list[int] = []
        self.request_id: str | None = None

    def wrap(self, name: str, fn, request_id_of=None):
        """`fn` inside a span; `request_id_of(args)` names a new current request."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if request_id_of is not None:
                self.request_id = request_id_of(args)
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.rids.append(self.request_id)
            self.starts.append(0)
            self.ends.append(0)
            self._stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if name == "cli.envelope_from_json":
                    self.request_id = self.rids[idx] = result.request_id
                return result
            finally:
                self.ends[idx] = perf_counter_ns()
                self.starts[idx] = start
                self._stack.pop()
        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"amiprivacy.{m.name}")
                   for m in pkgutil.iter_modules(amiprivacy.__path__)]
        wrappers: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in _SKIP):
                    wrappers[id(fn)] = self.wrap(name, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])
        for cls, attr, name in _METHODS:
            rid = (lambda args: args[1].request_id) if attr == "route" else None
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), rid))

    def dump(self, path: str) -> None:
        index: dict[str, int] = {}
        spans = [
            [index.setdefault(n, len(index)), s, e, p, r]
            for n, s, e, p, r in zip(self.names, self.starts, self.ends,
                                     self.parents, self.rids)
        ]
        with open(path, "w") as fh:
            json.dump({"names": list(index), "spans": spans}, fh)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return cli.gateway_main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
