"""Outside-in tracer: times the library's layers by wrapping public functions.

Nothing in ``greenberg`` is edited.  Each traced function is replaced by a
timing wrapper at every place it is looked up: the module that defines it
and every module that imported it by name (``verify`` and ``cyclo_logs`` bind
``get_records``, ``poly_mul_mod``, ``dlog_two_power``, ``to_T_basis`` and
``build_field_context`` into their own namespaces).  Wrapping at the lookup
site also splits ``canonical_generators`` by caller for free.

Spans nest on a stack, so a span's self time is its duration minus the
durations of the spans it caused.  Spans are kept in memory, aggregated by
(scope, parent, name); the scope is the level ``n`` of the last
``run_level`` entered ("L0" before the first level, "render" while
rendering), which gives the per-level x per-layer breakdown.
"""

from __future__ import annotations

import functools
import importlib
import time

LAYERS = ("finite_field", "quadratic", "cyclo_logs", "group_ring", "verify", "cli")


def _howell_extra(tr, args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    rank = args[2] if len(args) > 2 else kwargs["rank"]
    nrows = len(rows)
    tr.count("group_ring.howell_form.cells", nrows * rank)
    tr.peak("group_ring.howell_form.max_bytes", (nrows + rank) * rank * 8)


def _insert_extra(tr, args, kwargs, result):
    if result is not args[0]:
        tr.count("group_ring.HowellIdeal.insert.grew", 1)


def _poly_mul_extra(tr, args, kwargs, result):
    spec = args[2] if len(args) > 2 else kwargs["spec"]
    tr.peak("group_ring.red_table_bytes", spec.rank * spec.rank * 8)


def _eta_extra(tr, args, kwargs, result):
    ctx, kernel = args[0], args[1]
    tr.count("cyclo_logs.log_poly_eta.fp2_mults", (1 << ctx.n) * len(kernel.residues))


def _get_records_extra(tr, args, kwargs, result):
    tr.count("cyclo_logs.records_requested", len(result))


def _load_extra(tr, args, kwargs, result):
    cyclo_logs = importlib.import_module("greenberg.cyclo_logs")
    path = cyclo_logs.cache_path(*args[:3])
    if path.exists():
        tr.count("cyclo_logs.cache_bytes_read", path.stat().st_size)


def _store_extra(tr, args, kwargs, result):
    tr.count("cyclo_logs.cache_bytes_written", result.stat().st_size)


def _enter_level(tr, args, kwargs):
    n = args[1] if len(args) > 1 else kwargs["n"]
    tr.scope = f"L{n}"


# (span name, defining module, attribute, lookup sites, on_enter, on_exit).
# A lookup site is (module,) or (module, class); the wrapper is bound there
# under the attribute's own name.
TARGETS = [
    ("finite_field.build_field_context", "greenberg.finite_field", "build_field_context",
     [("greenberg.finite_field",), ("greenberg.cyclo_logs",)], None, None),
    ("finite_field.dlog_two_power", "greenberg.finite_field", "dlog_two_power",
     [("greenberg.finite_field",), ("greenberg.cyclo_logs",)], None, None),
    ("quadratic.class_number", "greenberg.quadratic", "class_number",
     [("greenberg.quadratic",), ("greenberg.verify",)], None, None),
    ("quadratic.character_kernel", "greenberg.quadratic", "character_kernel",
     [("greenberg.quadratic",), ("greenberg.verify",)], None, None),
    ("cyclo_logs.find_split_primes", "greenberg.cyclo_logs", "find_split_primes",
     [("greenberg.cyclo_logs",), ("greenberg.verify",)], None, None),
    ("cyclo_logs.get_records", "greenberg.cyclo_logs", "get_records",
     [("greenberg.cyclo_logs",), ("greenberg.verify",)], None, _get_records_extra),
    ("cyclo_logs.load_records", "greenberg.cyclo_logs", "load_records",
     [("greenberg.cyclo_logs",)], None, _load_extra),
    ("cyclo_logs.store_records", "greenberg.cyclo_logs", "store_records",
     [("greenberg.cyclo_logs",)], None, _store_extra),
    ("cyclo_logs.compute_record", "greenberg.cyclo_logs", "compute_record",
     [("greenberg.cyclo_logs",)], None, None),
    ("cyclo_logs.log_poly_eta", "greenberg.cyclo_logs", "log_poly_eta",
     [("greenberg.cyclo_logs",)], None, _eta_extra),
    ("cyclo_logs.log_poly_beta", "greenberg.cyclo_logs", "log_poly_beta",
     [("greenberg.cyclo_logs",)], None, None),
    ("cyclo_logs.log_scalar_delta", "greenberg.cyclo_logs", "log_scalar_delta",
     [("greenberg.cyclo_logs",)], None, None),
    ("group_ring.to_T_basis", "greenberg.group_ring", "to_T_basis",
     [("greenberg.group_ring",), ("greenberg.cyclo_logs",)], None, None),
    ("group_ring.poly_mul_mod", "greenberg.group_ring", "poly_mul_mod",
     [("greenberg.group_ring",), ("greenberg.verify",)], None, _poly_mul_extra),
    ("group_ring.howell_form", "greenberg.group_ring", "howell_form",
     [("greenberg.group_ring",)], None, _howell_extra),
    ("group_ring.HowellIdeal.insert", "greenberg.group_ring", ("HowellIdeal", "insert"),
     [("greenberg.group_ring", "HowellIdeal")], None, _insert_extra),
    ("group_ring.HowellIdeal.reduce_vec", "greenberg.group_ring",
     ("HowellIdeal", "reduce_vec"), [("greenberg.group_ring", "HowellIdeal")], None, None),
    ("group_ring.canonical_generators.verify", "greenberg.group_ring",
     "canonical_generators", [("greenberg.verify",)], None, None),
    ("group_ring.canonical_generators.cli", "greenberg.group_ring",
     "canonical_generators", [("greenberg.cli",)], None, None),
    ("verify.run_level", "greenberg.verify", "run_level",
     [("greenberg.verify",)], _enter_level, None),
    ("verify.check_termination", "greenberg.verify", "check_termination",
     [("greenberg.verify",)], None, None),
    ("verify.n0_sweep", "greenberg.verify", "_n0_sweep", [("greenberg.verify",)], None, None),
    ("cli.report_markdown", "greenberg.cli", "report_markdown",
     [("greenberg.cli",)], None, None),
    ("cli.reports_json", "greenberg.cli", "reports_json", [("greenberg.cli",)], None, None),
    ("cli.reports_csv", "greenberg.cli", "reports_csv", [("greenberg.cli",)], None, None),
]


def _owner(site):
    obj = importlib.import_module(site[0])
    return getattr(obj, site[1]) if len(site) > 1 else obj


def _lookup(module: str, attr):
    obj = importlib.import_module(module)
    for part in (attr if isinstance(attr, tuple) else (attr,)):
        obj = getattr(obj, part)
    return obj


def _bindings(target):
    """(site, owner, attribute) for each lookup site of a target.

    A site that no longer binds the name raises: its layer would otherwise
    read zero and look like a gain."""
    attr, sites = target[2], target[3]
    short = attr[-1] if isinstance(attr, tuple) else attr
    for site in sites:
        owner = _owner(site)
        if short not in vars(owner):
            raise AttributeError(f"cannot trace {target[0]}: {'.'.join(site)} "
                                 f"does not bind {short}")
        yield site, owner, short


def snapshot() -> dict:
    """Identity of every attribute the tracer may patch, for the unpatched check."""
    return {(site, short): vars(owner)[short]
            for target in TARGETS for site, owner, short in _bindings(target)}


class Tracer:
    """In-memory span aggregator; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: dict[tuple[str, str, str], list] = {}   # -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self.scope = "L0"
        self._stack: list[list] = []    # [name, child_s]
        self._saved: list[tuple[object, str, object]] = []

    def count(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: int) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def _wrap(self, name, fn, on_enter, on_exit):
        tr = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter(tr, args, kwargs)
            parent = tr._stack[-1][0] if tr._stack else "-"
            frame = [name, 0.0]
            tr._stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                tr._stack.pop()
                if tr._stack:
                    tr._stack[-1][1] += dt
                agg = tr.spans.get((tr.scope, parent, name))
                if agg is None:
                    agg = tr.spans[(tr.scope, parent, name)] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[1]
            if on_exit is not None:
                on_exit(tr, args, kwargs, result)
            return result

        wrapper.__bench_traced__ = True
        return wrapper

    def install(self) -> None:
        """Patch every target; a target that no longer exists raises before
        anything is patched."""
        plan = []
        for target in TARGETS:
            name, module, attr, _, on_enter, on_exit = target
            wrapper = self._wrap(name, _lookup(module, attr), on_enter, on_exit)
            plan += [(owner, short, wrapper) for _, owner, short in _bindings(target)]
        for owner, short, wrapper in plan:
            self._saved.append((owner, short, vars(owner)[short]))
            setattr(owner, short, wrapper)

    def uninstall(self) -> None:
        for owner, short, original in reversed(self._saved):
            setattr(owner, short, original)
        self._saved.clear()

    # -- summaries ---------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """name -> [calls, total_s, self_s] summed over scopes and parents."""
        out: dict[str, list] = {}
        for (_, _, name), (calls, total, self_s) in self.spans.items():
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        return out

    def breakdown(self) -> dict[str, dict[str, float]]:
        """scope -> layer -> self seconds, plus the two headline functions."""
        out: dict[str, dict[str, float]] = {}
        for (scope, _, name), (_, total, self_s) in self.spans.items():
            row = out.setdefault(scope, {})
            layer = name.split(".")[0]
            row[layer] = row.get(layer, 0.0) + self_s
            if name in ("group_ring.howell_form", "cyclo_logs.log_poly_eta"):
                row[name] = row.get(name, 0.0) + total
        return out


def is_unpatched(before: dict) -> bool:
    """True when every patched attribute is back to its original object and
    no tracer wrapper is reachable from any greenberg module."""
    if snapshot() != before:
        return False
    owners = [importlib.import_module(m) for m in {s[0] for t in TARGETS for s in t[3]}]
    owners.append(importlib.import_module("greenberg.group_ring").HowellIdeal)
    return not any(getattr(value, "__bench_traced__", False)
                   for owner in owners for value in vars(owner).values())
