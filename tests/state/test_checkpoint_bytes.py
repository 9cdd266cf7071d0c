"""The checkpoint write format, pinned byte for byte to its recording commit.

``fixtures/checkpoint_bytes_parent.json`` (see ``fixtures/README.md``) holds
what the commit before the record classes became their payload wrote: every
payload file and ``manifest.json`` after two epochs and after
resume-and-finish, and every in-memory record.  The current code must write
exactly those bytes.
"""

import json

import pytest

import checkpoint_bytes_golden as golden


@pytest.fixture(scope="module")
def parent_golden():
    return json.loads(golden.GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(golden.SCENARIOS))
def test_write_format_matches_parent(name, parent_golden, tiny_split_spec,
                                     tiny_parts4, normalize, tmp_path):
    produced = golden.record_scenario(tiny_split_spec, tiny_parts4, normalize,
                                      name, tmp_path)
    expected = parent_golden[name]
    assert produced.keys() == expected.keys()
    for key in expected:
        assert produced[key].keys() == expected[key].keys(), f"{name}: {key}"
        differing = sorted(item for item in expected[key]
                           if produced[key][item] != expected[key][item])
        assert not differing, f"{name}: {key} differ: {differing}"


def test_golden_is_not_vacuous(parent_golden):
    for name, run in parent_golden.items():
        for key in ("files_after_two_epochs", "files_after_resume"):
            files = run[key]
            assert golden.FileCheckpointStore.MANIFEST_NAME in files, name
            assert any(file.endswith("_run_run.npz") for file in files), name
            assert any("_shard_shard-1" in file for file in files), name
        # The resumed run wrote new records into the same directory.
        assert set(run["files_after_resume"]) - set(run["files_after_two_epochs"])
        kinds = {record.split(":")[1] for record in run["memory_records"]}
        assert kinds == {"shard", "run"}, name
