"""Docs are executable: every console block is run verbatim.

Blocks within one markdown file share a working directory, so an early
command can write a file (via `> file` redirection or `-o`) that a later
command consumes.  Support files from docs/examples/ are staged into the
working directory first.
"""

import shutil
from pathlib import Path

import pytest

import transcripts

DOCS = Path(__file__).resolve().parent.parent / "docs"
DOC_FILES = sorted(DOCS.glob("*.md"))


def test_docs_exist():
    assert DOC_FILES, "no markdown docs found"


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_doc_transcripts(doc, tmp_path):
    ts = transcripts.extract(doc)
    if doc.name in ("walkthrough.md", "formats.md"):
        assert ts, f"{doc.name} has no console transcripts"
    for support in (DOCS / "examples").glob("*"):
        shutil.copy(support, tmp_path / support.name)
    for t in ts:
        transcripts.check(t, tmp_path)


def test_every_cli_command_appears_in_some_transcript():
    commands = {"validate", "homology", "cohomology", "novikov", "euler",
                "obstructions", "from-triangulation", "example"}
    seen = set()
    for doc in DOC_FILES:
        for t in transcripts.extract(doc):
            seen.add(t.command.split()[1])
    assert commands <= seen, f"untested commands: {commands - seen}"


def test_conventions_table_states_the_weight_rule():
    text = (DOCS / "conventions.md").read_text()
    assert "t^(+a)" in text and "t^(−a)" in text


RP2_EULER = "euler (cells) = 1\neuler (homology) = 1\nagree: true"


def test_transcript_runs_imported_package_under_relative_pythonpath(
        tmp_path, monkeypatch):
    # A relative PYTHONPATH (as in `PYTHONPATH=src pytest`) points nowhere
    # from the child's working directory; the child must still import the
    # package this suite imported.
    monkeypatch.setenv("PYTHONPATH", "src")
    t = transcripts.Transcript(
        source="synthetic", line=1,
        command="morsetwist euler --example rp2",
        expected_output=RP2_EULER)
    transcripts.check(t, tmp_path)


def test_mismatch_is_reported(tmp_path):
    t = transcripts.Transcript(
        source="synthetic", line=1,
        command="morsetwist euler --example rp2",
        expected_output="definitely wrong")
    with pytest.raises(transcripts.TranscriptMismatch) as err:
        transcripts.check(t, tmp_path)
    # The child ran and its real output was compared.
    assert "--- observed (exit 0) ---\n" + RP2_EULER in str(err.value)


@pytest.mark.parametrize("command", [
    "morsetwist euler --example no-such",
    "morsetwist example show no-such > out.json",
])
def test_failed_command_is_a_mismatch_with_exit_code_and_stderr(
        tmp_path, command):
    t = transcripts.Transcript(
        source="synthetic", line=1, command=command, expected_output="")
    with pytest.raises(transcripts.TranscriptMismatch) as err:
        transcripts.check(t, tmp_path)
    message = str(err.value)
    assert "--- observed (exit 1) ---" in message
    assert "error: unknown example 'no-such'" in message
