"""Uniform pass/fail reports for the verification suites."""

from __future__ import annotations

from dataclasses import dataclass, field


def _show(value) -> str:
    """str(value), with the members of a set in sorted order, so that a
    rendered report does not depend on string hashing."""
    if isinstance(value, (set, frozenset)) and value:
        body = "{" + ", ".join(map(repr, sorted(value))) + "}"
        return body if isinstance(value, set) else f"frozenset({body})"
    return str(value)


@dataclass
class ReportLine:
    label: str
    expected: object
    computed: object
    ok: bool


@dataclass
class Report:
    """Expected-vs-computed lines with an overall verdict."""

    title: str
    lines: list[ReportLine] = field(default_factory=list)

    def check(self, label: str, expected, computed) -> bool:
        ok = expected == computed
        self.lines.append(ReportLine(label, expected, computed, ok))
        return ok

    def check_true(self, label: str, computed: bool) -> bool:
        return self.check(label, True, bool(computed))

    def note(self, label: str, computed) -> None:
        """Informational line; never fails the report."""
        self.lines.append(ReportLine(label, None, computed, True))

    def extend(self, other: "Report") -> None:
        self.lines.extend(other.lines)

    @property
    def passed(self) -> bool:
        return all(line.ok for line in self.lines)

    def render(self) -> str:
        out = [self.title]
        for line in self.lines:
            if line.expected is None and line.ok:
                out.append(f"  NOTE {line.label}: {_show(line.computed)}")
            else:
                status = "PASS" if line.ok else "FAIL"
                out.append(
                    f"  {status} {line.label}: expected {_show(line.expected)}, "
                    f"computed {_show(line.computed)}"
                )
        out.append(f"{'PASS' if self.passed else 'FAIL'} {self.title}")
        return "\n".join(out)
