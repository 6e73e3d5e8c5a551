"""Every artifact of the chain keeps its recorded bytes (see artifact_digests.py)."""

import json

from artifact_digests import RECORD, fingerprint, mismatches, run_chain


def test_chain_artifacts_match_the_record(tmp_path):
    problems = mismatches(json.loads(RECORD.read_text()), run_chain(tmp_path))
    assert not problems, "\n".join(problems)


def test_mismatches_name_a_file_moved_by_one_ulp():
    """Bytes catch a one-ulp move; values, off the recorded build, catch only a
    move beyond 1e-12 of the file's largest entry, and a changed text."""
    recorded = {"numpy": "1", "platform": "p", "exit_codes": {"cmd": 0}}
    recorded["artifacts"] = {"a.csv": fingerprint(b"# wgwalk 0.1.0\n2.0,-0.5\n")}

    def measured(text: bytes, numpy: str = "1") -> dict:
        return dict(recorded, numpy=numpy, artifacts={"a.csv": fingerprint(text)})

    ulp = b"# wgwalk 0.1.0\n2.0000000000000004,-0.5\n"
    far = b"# wgwalk 0.1.0\n2.0,-0.500000001\n"
    assert mismatches(recorded, measured(b"# wgwalk 0.1.0\n2.0,-0.5\n")) == []
    assert mismatches(recorded, measured(ulp))[0] == "a.csv: sha256 moved"
    assert mismatches(recorded, measured(ulp, numpy="2")) == []
    for text in (far, b"# wgwalk 0.1.1\n2.0,-0.5\n", b"2.0,-0.5\n"):
        problems = mismatches(recorded, measured(text, numpy="2"))
        assert problems[0] == "a.csv: values moved"
        assert "not byte for byte" in problems[-1]
    problems = mismatches(recorded, dict(recorded, exit_codes={"cmd": 3}))
    assert problems[0] == "cmd: exit code 3 where 0 was recorded"
