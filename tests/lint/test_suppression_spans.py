"""Statement-span noqa anchoring and dead-suppression warnings."""

import textwrap
from pathlib import Path

from repro.lint import SourceFile
from repro.lint.runner import UNUSED_SUPPRESSION

from .conftest import lint_tree

ENGINE = "repro/sim/engine.py"


class TestStatementSpans:
    def test_noqa_on_wrapped_statement_line_covers_the_anchor(self):
        # The finding anchors at the ``for`` line; the comment sits on
        # the wrapped continuation of its iterable.
        source = SourceFile.from_text(textwrap.dedent("""\
            def serve(addrs, flags):
                for a in zip(addrs,
                             flags):  # repro: noqa(hot-loop)
                    touch(a)
            """), Path(ENGINE))
        assert source.is_suppressed("hot-loop", 2)

    def test_noqa_on_decorator_line_covers_the_def(self):
        source = SourceFile.from_text(textwrap.dedent("""\
            @decorate(  # repro: noqa(mutable-default)
                option=1)
            def serve(items=[]):
                pass
            """), Path(ENGINE))
        # The def anchors at its own line (3), decorators included in
        # the span.
        assert source.is_suppressed("mutable-default", 3)

    def test_noqa_on_first_line_of_file(self):
        source = SourceFile.from_text(
            "import os  # repro: noqa(nondeterminism)\n", Path(ENGINE))
        assert source.is_suppressed("nondeterminism", 1)

    def test_noqa_does_not_leak_into_the_body(self):
        source = SourceFile.from_text(textwrap.dedent("""\
            def serve(addrs, flags):
                for a in zip(addrs,
                             flags):  # repro: noqa(hot-loop)
                    for b in addrs:
                        touch(b)
            """), Path(ENGINE))
        # Header span ends before the body; line 4's loop is its own
        # statement.
        assert not source.is_suppressed("hot-loop", 4)

    def test_multiline_simple_statement_span(self):
        source = SourceFile.from_text(textwrap.dedent("""\
            threshold = compare(
                a == 1.0,  # repro: noqa(float-eq)
            )
            """), Path("repro/sim/timing.py"))
        assert source.is_suppressed("float-eq", 1)


class TestUnusedSuppression:
    def test_dead_noqa_is_warned(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/sim/engine.py": """\
                def serve(items):
                    for item in items:  # repro: noqa(hot-loop)
                        touch(item)
                """,
        })
        rules = [f.rule for f in report.findings]
        assert rules == [UNUSED_SUPPRESSION]
        # Warnings never fail the run.
        assert not report.failed

    def test_live_noqa_is_not_warned(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/sim/engine.py": """\
                def serve(addrs):
                    for i in range(len(addrs)):  # repro: noqa(hot-loop)
                        touch(addrs[i])
                """,
        })
        assert [f.rule for f in report.findings] == []
        assert [f.rule for f in report.suppressed] == ["hot-loop"]

    def test_wrong_rule_name_is_warned_even_beside_a_finding(self,
                                                             tmp_path):
        report = lint_tree(tmp_path, {
            "repro/sim/engine.py": """\
                def serve(addrs):
                    for i in range(len(addrs)):  # repro: noqa(float-eq)
                        touch(addrs[i])
                """,
        })
        rules = sorted(f.rule for f in report.findings)
        assert rules == ["hot-loop", UNUSED_SUPPRESSION]

    def test_selected_rule_runs_skip_the_warning(self, tmp_path):
        # With --select style subsets most rules never run, so absence
        # of a suppressed finding proves nothing.
        from repro.lint import REGISTRY
        rules = [REGISTRY.rules["float-eq"]()]
        report = lint_tree(tmp_path, {
            "repro/sim/engine.py": """\
                def serve(items):
                    for item in items:  # repro: noqa(hot-loop)
                        touch(item)
                """,
        }, rules=rules)
        assert report.findings == []
