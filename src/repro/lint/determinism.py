"""Determinism rules: the invariants behind byte-identical reports.

Every reproduction claim in this repo — record→replay equality, golden
parity of the event loop, ``workers=1`` pool equivalence — assumes the
simulator is a pure function of its config and seeds.  These rules ban the
three classic ways that assumption silently breaks:

* **wall-clock reads** (``time.time``/``perf_counter``/``datetime.now``/
  ``os.urandom``) inside simulation paths — host time leaking into
  simulated values makes two runs of the same config diverge;
* **unseeded global RNG** (``random.*``, legacy ``numpy.random.*``
  module-level draws) — randomness outside the seeded
  ``numpy.random.default_rng`` streams is invisible to the config;
* **iteration-order hazards** — loops over ``set`` literals/constructions
  (arbitrary order across interpreters) and ``dict.keys()`` feeding ordered
  accumulation in report/metrics code, where output byte-stability is the
  contract;
* **mutable default arguments** — one shared list/dict across calls makes a
  component's output depend on call history, not just its inputs.

Wall-clock profiling of the simulator *itself* (``repro.obs.profiling``)
is the sanctioned exception, carried in ``lint/baseline.json`` with a
reason rather than special-cased here — exceptions stay visible and
ratcheted.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.api.registry import LINT_RULES
from repro.lint.findings import Finding
from repro.lint.rules import LintContext, ParsedModule

#: Path prefixes of simulation code, where host time and global RNG are banned.
SIM_PATHS = (
    "src/repro/serving/",
    "src/repro/sweep/",
    "src/repro/core/",
    "src/repro/obs/",
)

#: Relpath fragments marking report/metrics modules (ordered-output code).
REPORTING_FRAGMENTS = ("metrics", "report", "results", "analysis", "exporters")

#: Canonical dotted names that read the host clock or host entropy.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

#: ``numpy.random`` attributes that construct *seeded* generators (allowed).
SEEDED_NUMPY_FACTORIES = frozenset(
    {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox", "RandomState"}
)


def _calls(module: ParsedModule) -> Iterator[tuple[ast.Call, str]]:
    """Every call in the module with a resolvable canonical dotted name."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            dotted = module.dotted_call_name(node)
            if dotted is not None:
                yield node, dotted


@LINT_RULES.register("no-wall-clock")
class NoWallClockRule:
    """Ban host-time and host-entropy reads inside simulation paths.

    Simulated time comes from the event heap; a ``time.time()`` (or
    ``datetime.now``/``os.urandom``/``uuid4``) call anywhere under
    ``serving/``, ``sweep/``, ``core/`` or ``obs/`` makes output depend on
    the machine running it.  Sanctioned uses (the simulator-speed profiler)
    live in the committed baseline, not in the rule.
    """

    rule_id = "no-wall-clock"
    severity = "error"

    def check(self, context: LintContext) -> Iterable[Finding]:
        for module in context.modules_under(*SIM_PATHS):
            for node, dotted in _calls(module):
                if dotted in WALL_CLOCK_CALLS:
                    yield Finding(
                        rule=self.rule_id,
                        severity=self.severity,
                        path=module.relpath,
                        line=node.lineno,
                        message=f"call to {dotted} in a simulation path",
                        hint="derive times from simulated clocks/seeded RNGs; "
                        "host-clock measurement belongs in repro.obs.profiling "
                        "(baselined)",
                    )


@LINT_RULES.register("no-unseeded-rng")
class NoUnseededRngRule:
    """Ban module-level RNG draws that bypass the config's seeds.

    ``random.*`` and legacy ``numpy.random.*`` calls draw from hidden
    global state no seed in any config controls.  Seeded constructions —
    ``numpy.random.default_rng(seed)``, ``Generator``, ``SeedSequence``,
    ``random.Random(seed)`` — are the sanctioned forms.
    """

    rule_id = "no-unseeded-rng"
    severity = "error"

    def check(self, context: LintContext) -> Iterable[Finding]:
        for module in context.modules_under(*SIM_PATHS):
            for node, dotted in _calls(module):
                if dotted.startswith("random.") and dotted != "random.Random":
                    banned = dotted
                elif dotted.startswith("numpy.random."):
                    attribute = dotted.split(".", 2)[2].split(".")[0]
                    if attribute in SEEDED_NUMPY_FACTORIES:
                        continue
                    banned = dotted
                else:
                    continue
                yield Finding(
                    rule=self.rule_id,
                    severity=self.severity,
                    path=module.relpath,
                    line=node.lineno,
                    message=f"unseeded global RNG call {banned}",
                    hint="draw from a numpy.random.default_rng(seed) generator "
                    "threaded from the config",
                )


def _set_iteration_targets(tree: ast.Module) -> Iterator[ast.expr]:
    """Iterables of for-loops and comprehensions that are raw sets."""
    for node in ast.walk(tree):
        iters: list[ast.expr] = []
        if isinstance(node, ast.For):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iters.extend(gen.iter for gen in node.generators)
        for candidate in iters:
            if isinstance(candidate, (ast.Set, ast.SetComp)):
                yield candidate
            elif (
                isinstance(candidate, ast.Call)
                and isinstance(candidate.func, ast.Name)
                and candidate.func.id in ("set", "frozenset")
            ):
                yield candidate


@LINT_RULES.register("no-set-iteration")
class NoSetIterationRule:
    """Ban iterating raw sets, and bare ``.keys()`` loops in reporting code.

    Set iteration order is an implementation detail; a loop over a set
    feeding any ordered accumulation (a report row, a JSON list, a
    histogram) can reorder bytes between runs or interpreter versions.
    Wrap the set in ``sorted(...)``.  In report/metrics modules the same
    applies to bare ``for k in mapping.keys()`` loops — insertion order is
    deterministic but *call-history*-shaped, which is exactly what byte
    -stable reports must not depend on; iterate ``sorted(mapping)`` there.
    """

    rule_id = "no-set-iteration"
    severity = "error"

    def check(self, context: LintContext) -> Iterable[Finding]:
        for module in context.modules:
            if not module.relpath.startswith("src/"):
                continue
            for target in _set_iteration_targets(module.tree):
                yield Finding(
                    rule=self.rule_id,
                    severity=self.severity,
                    path=module.relpath,
                    line=target.lineno,
                    message="iteration over a set (arbitrary order)",
                    hint="wrap the set in sorted(...) before iterating",
                )
            if not any(
                fragment in module.relpath for fragment in REPORTING_FRAGMENTS
            ):
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.For):
                    continue
                candidate = node.iter
                if (
                    isinstance(candidate, ast.Call)
                    and isinstance(candidate.func, ast.Attribute)
                    and candidate.func.attr == "keys"
                    and not candidate.args
                ):
                    yield Finding(
                        rule=self.rule_id,
                        severity=self.severity,
                        path=module.relpath,
                        line=candidate.lineno,
                        message="bare .keys() loop in report/metrics code",
                        hint="iterate sorted(mapping) so report bytes do not "
                        "depend on insertion history",
                    )


@LINT_RULES.register("no-mutable-default")
class NoMutableDefaultRule:
    """Ban mutable default arguments anywhere in the package.

    A ``def f(acc=[])`` default is one object shared by every call — state
    leaks across requests, runs, and tests, which is the canonical way a
    "deterministic" component develops call-order-dependent output.  Use
    ``None`` plus an in-body default, or ``dataclasses.field(default_factory=...)``.
    """

    rule_id = "no-mutable-default"
    severity = "error"

    def check(self, context: LintContext) -> Iterable[Finding]:
        for module in context.modules:
            if not module.relpath.startswith("src/"):
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                defaults = list(node.args.defaults) + [
                    default for default in node.args.kw_defaults if default is not None
                ]
                for default in defaults:
                    if isinstance(
                        default,
                        (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp),
                    ) or (
                        isinstance(default, ast.Call)
                        and isinstance(default.func, ast.Name)
                        and default.func.id in ("list", "dict", "set", "bytearray")
                    ):
                        yield Finding(
                            rule=self.rule_id,
                            severity=self.severity,
                            path=module.relpath,
                            line=default.lineno,
                            message=(
                                f"mutable default argument in {node.name}()"
                            ),
                            hint="default to None and construct inside the "
                            "function (or use dataclasses.field(default_factory=...))",
                        )
