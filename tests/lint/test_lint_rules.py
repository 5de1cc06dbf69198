"""Per-rule behaviour: one true positive and one near miss for every rule.

Each test builds a miniature repo root from ``fixtures/`` and runs exactly
one rule over it, asserting both that the seeded violation is found (with
the right rule id, path, and message) and that the adjacent near-miss
construction stays clean.
"""

from __future__ import annotations

from tests.lint.support import fixture, make_root, run_rule


class TestNoWallClock:
    def test_flags_aliased_reads_in_sim_path(self, tmp_path):
        root = make_root(
            tmp_path, {"src/repro/serving/clock.py": fixture("wall_clock_bad.py")}
        )
        report = run_rule(root, "no-wall-clock")
        assert [f.rule for f in report.findings] == ["no-wall-clock"] * 2
        messages = {f.message for f in report.findings}
        assert "call to time.perf_counter in a simulation path" in messages
        assert "call to datetime.datetime.now in a simulation path" in messages
        assert all(f.path == "src/repro/serving/clock.py" for f in report.findings)

    def test_reference_without_call_is_clean(self, tmp_path):
        root = make_root(
            tmp_path, {"src/repro/serving/clock.py": fixture("wall_clock_ok.py")}
        )
        assert run_rule(root, "no-wall-clock").ok

    def test_same_call_outside_sim_paths_is_clean(self, tmp_path):
        root = make_root(
            tmp_path, {"src/repro/analysis/clock.py": fixture("wall_clock_bad.py")}
        )
        assert run_rule(root, "no-wall-clock").ok


class TestNoUnseededRng:
    def test_flags_global_draws(self, tmp_path):
        root = make_root(
            tmp_path, {"src/repro/sweep/rng.py": fixture("unseeded_rng_bad.py")}
        )
        report = run_rule(root, "no-unseeded-rng")
        messages = {f.message for f in report.findings}
        assert messages == {
            "unseeded global RNG call random.random",
            "unseeded global RNG call numpy.random.rand",
        }

    def test_seeded_factories_are_clean(self, tmp_path):
        root = make_root(
            tmp_path, {"src/repro/sweep/rng.py": fixture("unseeded_rng_ok.py")}
        )
        assert run_rule(root, "no-unseeded-rng").ok


class TestNoSetIteration:
    def test_flags_set_loops_and_bare_keys_in_metrics(self, tmp_path):
        root = make_root(
            tmp_path,
            {"src/repro/obs/metrics_export.py": fixture("set_iteration_bad.py")},
        )
        report = run_rule(root, "no-set-iteration")
        messages = [f.message for f in report.findings]
        assert messages.count("iteration over a set (arbitrary order)") == 2
        assert messages.count("bare .keys() loop in report/metrics code") == 1

    def test_sorted_wrapping_is_clean(self, tmp_path):
        root = make_root(
            tmp_path,
            {"src/repro/obs/metrics_export.py": fixture("set_iteration_ok.py")},
        )
        assert run_rule(root, "no-set-iteration").ok

    def test_bare_keys_outside_reporting_code_is_clean(self, tmp_path):
        root = make_root(
            tmp_path, {"src/repro/serving/order.py": fixture("set_iteration_bad.py")}
        )
        report = run_rule(root, "no-set-iteration")
        # The two set loops still fire everywhere; the .keys() rule is
        # reporting-code-only.
        messages = [f.message for f in report.findings]
        assert messages.count("bare .keys() loop in report/metrics code") == 0
        assert messages.count("iteration over a set (arbitrary order)") == 2


class TestNoMutableDefault:
    def test_flags_shared_defaults(self, tmp_path):
        root = make_root(
            tmp_path, {"src/repro/api/defaults.py": fixture("mutable_default_bad.py")}
        )
        report = run_rule(root, "no-mutable-default")
        messages = {f.message for f in report.findings}
        assert messages == {
            "mutable default argument in accumulate()",
            "mutable default argument in tabulate()",
        }

    def test_none_and_immutable_defaults_are_clean(self, tmp_path):
        root = make_root(
            tmp_path, {"src/repro/api/defaults.py": fixture("mutable_default_ok.py")}
        )
        assert run_rule(root, "no-mutable-default").ok


class TestReportsKindTagged:
    def test_untagged_duplicate_and_unfrozen_are_flagged(self, tmp_path):
        root = make_root(
            tmp_path, {"src/repro/api/extra_reports.py": fixture("reports_bad.py")}
        )
        report = run_rule(root, "reports-kind-tagged")
        messages = sorted(f.message for f in report.findings)
        assert messages == [
            "Report subclass UnfrozenReport is not a frozen dataclass",
            "Report subclass UntaggedReport has no @report_type(...) kind tag",
            "report kind 'dup' of SecondReport duplicates "
            "src/repro/api/extra_reports.py:FirstReport",
        ]

    def test_tagged_frozen_report_is_clean(self, tmp_path):
        root = make_root(
            tmp_path, {"src/repro/api/extra_reports.py": fixture("reports_ok.py")}
        )
        assert run_rule(root, "reports-kind-tagged").ok


class TestEventDispatch:
    def test_unmentioned_event_type_is_flagged_by_name(self, tmp_path):
        root = make_root(
            tmp_path,
            {
                "src/repro/serving/events.py": fixture("events_module.py"),
                "src/repro/obs/metrics.py": fixture("events_dispatch_bad.py"),
            },
        )
        report = run_rule(root, "events-dispatch-exhaustive")
        assert [f.message for f in report.findings] == [
            "ServerEvent subclass PongEvent is not handled in "
            "the telemetry metrics fold"
        ]
        assert report.findings[0].path == "src/repro/obs/metrics.py"

    def test_explicit_ignore_branch_counts_as_handled(self, tmp_path):
        root = make_root(
            tmp_path,
            {
                "src/repro/serving/events.py": fixture("events_module.py"),
                "src/repro/obs/metrics.py": fixture("events_dispatch_ok.py"),
            },
        )
        assert run_rule(root, "events-dispatch-exhaustive").ok

    def test_missing_site_method_is_flagged(self, tmp_path):
        root = make_root(
            tmp_path,
            {
                "src/repro/serving/events.py": fixture("events_module.py"),
                "src/repro/obs/metrics.py": (
                    '"""A collector that lost its fold."""\n\n\n'
                    "class MetricsCollector:\n"
                    '    """No on_event any more."""\n'
                ),
            },
        )
        report = run_rule(root, "events-dispatch-exhaustive")
        assert [f.message for f in report.findings] == [
            "dispatch site MetricsCollector.on_event not found "
            "(the telemetry metrics fold)"
        ]

    def test_no_events_module_disables_the_rule(self, tmp_path):
        root = make_root(
            tmp_path, {"src/repro/obs/metrics.py": fixture("events_dispatch_bad.py")}
        )
        assert run_rule(root, "events-dispatch-exhaustive").ok
