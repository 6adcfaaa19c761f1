"""The ``mphserve`` command-line front-end (repro.tools.mphserve): what it
runs, what it prints and the exit status a shell gates on."""

import json

import pytest

from repro.tools.mphserve import main
from tests.service.conftest import coupled_doc

PROGRAMS = "tests.service.conftest"


@pytest.fixture
def write_docs(tmp_path):
    """``write(*docs)``: each document (a dict, or raw text) as a file;
    returns the paths."""

    def write(*docs):
        paths = []
        for i, doc in enumerate(docs):
            path = tmp_path / f"job{i}.json"
            path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
            paths.append(str(path))
        return paths

    return write


def verdicts(out: str) -> list[str]:
    """The state word of each job's verdict line."""
    return [line.split()[2].rstrip(":") for line in out.splitlines()]


class TestServe:
    def test_corpus_larger_than_the_queue_runs_everything(self, write_docs, capsys):
        """Three documents through a one-slot queue and one worker: the
        CLI waits for room instead of refusing the corpus."""
        docs = write_docs(*(coupled_doc("thread", co2=c) for c in (1.0, 2.0, 4.0)))
        code = main(["--programs", PROGRAMS, "--max-queued", "1", "--workers", "1", *docs])
        out = capsys.readouterr().out
        assert code == 0
        assert verdicts(out) == ["done", "done", "done"]

    def test_exit_status_counts_jobs_not_done(self, write_docs, capsys):
        docs = write_docs(coupled_doc("thread"), {"mph_job": 1, "components": []})
        code = main(["--programs", PROGRAMS, *docs])
        assert code == 1
        assert verdicts(capsys.readouterr().out) == ["done", "rejected"]

    def test_missing_programs_is_a_usage_error(self, write_docs, capsys):
        assert main(write_docs(coupled_doc("thread"))) == 2
        assert "--programs is required" in capsys.readouterr().err


class TestCheck:
    def test_validates_without_running(self, write_docs, capsys):
        docs = write_docs(coupled_doc("thread"), "{not json", {"mph_job": 1})
        code = main(["--check", *docs])
        out = capsys.readouterr().out.splitlines()
        assert code == 2
        assert ": ok name='conformance-coupled' world_size=4 backend=thread" in out[0]
        assert all(": INVALID: " in line for line in out[1:])
