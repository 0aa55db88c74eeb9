"""Inline ``# repro: noqa`` mechanics."""

import textwrap
from pathlib import Path

from repro.lint import SourceFile, run
from repro.lint.source import ALL_RULES

from .conftest import lint_text

ENGINE = "repro/sim/engine.py"

_BAD_LOOP = """\
    def serve(addrs):
        for i in range(len(addrs)):{comment}
            touch(addrs[i])
    """


def _source(comment: str) -> SourceFile:
    return SourceFile.from_text(
        textwrap.dedent(_BAD_LOOP.format(comment=comment)), Path(ENGINE))


def test_named_noqa_suppresses_that_rule():
    source = _source("  # repro: noqa(hot-loop)")
    assert source.is_suppressed("hot-loop", 2)
    assert not source.is_suppressed("float-eq", 2)


def test_bare_noqa_suppresses_every_rule():
    source = _source("  # repro: noqa")
    assert source.noqa[2] == ALL_RULES
    assert source.is_suppressed("hot-loop", 2)
    assert source.is_suppressed("anything-else", 2)


def test_noqa_for_other_rule_does_not_suppress():
    source = _source("  # repro: noqa(float-eq)")
    assert not source.is_suppressed("hot-loop", 2)


def test_noqa_only_covers_its_own_line():
    source = _source("  # repro: noqa(hot-loop)")
    assert not source.is_suppressed("hot-loop", 1)
    assert not source.is_suppressed("hot-loop", 3)


def test_multiple_rules_in_one_noqa():
    source = _source("  # repro: noqa(hot-loop, dtype-discipline)")
    assert source.is_suppressed("hot-loop", 2)
    assert source.is_suppressed("dtype-discipline", 2)
    assert not source.is_suppressed("float-eq", 2)


def test_noqa_inside_string_literal_is_inert():
    source = SourceFile.from_text(textwrap.dedent("""\
        def serve(addrs):
            label = "# repro: noqa(hot-loop)"
            for i in range(len(addrs)):
                touch(addrs[i])
        """), Path(ENGINE))
    assert source.noqa == {}
    assert not source.is_suppressed("hot-loop", 3)


def test_runner_classifies_suppressed_findings(tmp_path):
    target = tmp_path / "repro" / "sim" / "engine.py"
    target.parent.mkdir(parents=True)
    target.write_text(textwrap.dedent(
        _BAD_LOOP.format(comment="  # repro: noqa(hot-loop)")))
    report = run([tmp_path], root=tmp_path)
    assert report.findings == []
    assert [f.rule for f in report.suppressed] == ["hot-loop"]
    assert not report.failed


def test_raw_check_still_sees_suppressed_findings():
    # check_source() reports everything; classification happens in run().
    findings = lint_text(
        _BAD_LOOP.format(comment="  # repro: noqa(hot-loop)"),
        ENGINE, rule="hot-loop")
    assert len(findings) == 1
