"""Pragma engine: parsing, attachment, justification requirement."""

from repro.lint.engine import lint_source
from repro.lint.pragmas import PragmaSheet


def codes(result, *, suppressed=False):
    pool = result.suppressed if suppressed else result.active
    return [f.code for f in pool]


class TestParsing:
    def test_trailing_pragma_applies_to_its_own_line(self):
        sheet = PragmaSheet.from_source(
            "x = 1  # repro-lint: allow[wall-clock] because reasons\n", "f.py")
        assert sheet.reason_for(1, "wall-clock") == "because reasons"
        assert sheet.reason_for(2, "wall-clock") is None

    def test_standalone_pragma_applies_to_next_line(self):
        sheet = PragmaSheet.from_source(
            "# repro-lint: allow[unseeded-rng] fixture noise\nx = 1\n", "f.py")
        assert sheet.reason_for(2, "unseeded-rng") == "fixture noise"

    def test_stacked_standalone_pragmas_cascade(self):
        src = ("# repro-lint: allow[wall-clock] reason one\n"
               "# repro-lint: allow[unseeded-rng] reason two\n"
               "x = 1\n")
        sheet = PragmaSheet.from_source(src, "f.py")
        assert sheet.reason_for(3, "wall-clock") == "reason one"
        assert sheet.reason_for(3, "unseeded-rng") == "reason two"

    def test_multiple_codes_in_one_pragma(self):
        sheet = PragmaSheet.from_source(
            "x = 1  # repro-lint: allow[wall-clock, unseeded-rng] both justified\n",
            "f.py")
        assert sheet.reason_for(1, "wall-clock") == "both justified"
        assert sheet.reason_for(1, "unseeded-rng") == "both justified"

    def test_missing_reason_is_a_pragma_finding(self):
        sheet = PragmaSheet.from_source(
            "x = 1  # repro-lint: allow[wall-clock]\n", "f.py")
        assert sheet.reason_for(1, "wall-clock") is None
        findings = sheet.error_findings("f.py")
        assert len(findings) == 1 and findings[0].code == "pragma"

    def test_malformed_pragma_is_a_pragma_finding(self):
        sheet = PragmaSheet.from_source(
            "x = 1  # repro-lint: suppress everything please\n", "f.py")
        findings = sheet.error_findings("f.py")
        assert len(findings) == 1 and findings[0].code == "pragma"


class TestSuppression:
    VIOLATION = "import time\nt = time.time()  # repro-lint: allow[wall-clock] {}\n"

    def test_justified_pragma_suppresses(self):
        result = lint_source(self.VIOLATION.format("measured interval"), "src/repro/x.py")
        assert codes(result) == []
        assert codes(result, suppressed=True) == ["wall-clock"]
        assert result.suppressed[0].suppression_reason == "measured interval"

    def test_unjustified_pragma_does_not_suppress(self):
        src = "import time\nt = time.time()  # repro-lint: allow[wall-clock]\n"
        result = lint_source(src, "src/repro/x.py")
        assert sorted(codes(result)) == ["pragma", "wall-clock"]

    def test_wrong_code_does_not_suppress(self):
        src = "import time\nt = time.time()  # repro-lint: allow[unseeded-rng] wrong rule\n"
        result = lint_source(src, "src/repro/x.py")
        # the finding stands, and the grant that missed it is stale
        assert sorted(codes(result)) == ["unused-pragma", "wall-clock"]

    def test_pragma_findings_are_unsuppressible(self):
        src = ("# repro-lint: allow[pragma] nice try\n"
               "x = 1  # repro-lint: allow[wall-clock]\n")
        result = lint_source(src, "src/repro/x.py")
        assert "pragma" in codes(result)
