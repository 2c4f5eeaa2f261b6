"""Fingerprints, report formats, baseline workflow, and the CLI."""

import json

from tools.analysis.report import (
    TOOL_NAME, Violation, fingerprint, load_baseline, render_json,
    render_sarif, split_by_baseline, stale_entries, write_baseline,
)


def make_violation(**overrides):
    base = dict(
        path="src/repro/blockchain/block.py", line=42, rule="taint-float",
        message="float value reaches hash sink",
        qualname="repro.blockchain.block.Block.header_hash",
        snippet="digest = sha256(struct.pack('<d', stamp))",
        trace=("float literal (a.py:1)", "sha256() (b.py:2)"),
    )
    base.update(overrides)
    return Violation(**base)


# -- fingerprints --------------------------------------------------------------

def test_fingerprint_independent_of_line_number():
    assert fingerprint(make_violation(line=42)) == \
        fingerprint(make_violation(line=999))


def test_fingerprint_independent_of_snippet_whitespace():
    spaced = make_violation(
        snippet="digest =   sha256( struct.pack('<d', stamp) )")
    tight = make_violation(
        snippet="digest = sha256( struct.pack('<d', stamp) )")
    assert fingerprint(spaced) == fingerprint(tight)


def test_fingerprint_changes_with_rule_path_qualname_snippet():
    base = fingerprint(make_violation())
    assert fingerprint(make_violation(rule="taint-wall-clock")) != base
    assert fingerprint(make_violation(path="src/repro/other.py")) != base
    assert fingerprint(make_violation(qualname="repro.x.y")) != base
    assert fingerprint(make_violation(snippet="something_else()")) != base


# -- formats -------------------------------------------------------------------

def test_render_json_shape():
    payload = json.loads(render_json([make_violation()], checked=10,
                                     baselined=2))
    assert payload["tool"] == TOOL_NAME
    assert payload["files_checked"] == 10
    assert payload["baselined"] == 2
    assert payload["new"] == 1
    finding = payload["findings"][0]
    assert finding["rule"] == "taint-float"
    assert finding["fingerprint"] == fingerprint(make_violation())
    assert finding["trace"] == list(make_violation().trace)


def test_render_sarif_shape():
    sarif = json.loads(render_sarif([make_violation()], checked=10,
                                    baselined=0))
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert run["tool"]["driver"]["name"] == TOOL_NAME
    assert {"id": "taint-float"} in run["tool"]["driver"]["rules"]
    result = run["results"][0]
    assert result["ruleId"] == "taint-float"
    assert result["partialFingerprints"]["primary"] == \
        fingerprint(make_violation())
    location = result["locations"][0]
    assert location["physicalLocation"]["artifactLocation"]["uri"] == \
        "src/repro/blockchain/block.py"
    assert location["logicalLocations"][0]["fullyQualifiedName"] == \
        "repro.blockchain.block.Block.header_hash"


# -- baseline ------------------------------------------------------------------

def test_baseline_roundtrip_and_split(tmp_path):
    known = make_violation()
    fresh = make_violation(rule="taint-wall-clock")
    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, [known])

    baseline = load_baseline(baseline_path)
    assert fingerprint(known) in baseline

    new, baselined = split_by_baseline([known, fresh], baseline)
    assert new == [fresh]
    assert baselined == [known]


def test_load_baseline_missing_file_is_empty(tmp_path):
    assert load_baseline(tmp_path / "absent.json") == {}


def test_baseline_survives_line_drift(tmp_path):
    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, [make_violation(line=42)])
    drifted = make_violation(line=137)
    new, baselined = split_by_baseline([drifted],
                                       load_baseline(baseline_path))
    assert new == []
    assert baselined == [drifted]


def test_stale_entries_are_the_fingerprints_nothing_matches(tmp_path):
    kept, fixed = make_violation(), make_violation(rule="taint-wall-clock")
    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, [kept, fixed])
    baseline = load_baseline(baseline_path)
    assert stale_entries([kept, fixed], baseline) == []
    assert stale_entries([kept], baseline) == [fingerprint(fixed)]


# -- CLI end-to-end ------------------------------------------------------------

def _write_tmp_tree(tmp_path):
    util = tmp_path / "src" / "repro" / "util.py"
    seal = tmp_path / "src" / "repro" / "blockchain" / "seal.py"
    seal.parent.mkdir(parents=True)
    util.write_text(
        "import time\n"
        "\n"
        "def stamp():\n"
        "    return time.time()\n"
    )
    seal.write_text(
        "import hashlib\n"
        "\n"
        "from repro.util import stamp\n"
        "\n"
        "def seal(data):\n"
        "    return hashlib.sha256(data + str(stamp()).encode()).digest()\n"
    )


def test_cli_reports_cross_module_finding(tmp_path, capsys):
    from tools.analysis.__main__ import main

    _write_tmp_tree(tmp_path)
    code = main(["src", "--root", str(tmp_path), "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    rules = {finding["rule"] for finding in payload["findings"]}
    assert "taint-wall-clock" in rules


def test_cli_baseline_gates_only_new_findings(tmp_path, capsys):
    from tools.analysis.__main__ import main

    _write_tmp_tree(tmp_path)
    baseline = tmp_path / "baseline.json"
    assert main(["src", "--root", str(tmp_path),
                 "--baseline", str(baseline), "--update-baseline"]) == 0
    capsys.readouterr()

    # Everything current is baselined: the run passes.
    assert main(["src", "--root", str(tmp_path),
                 "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "nothing new" in out

    # A new violation fails the run even with the baseline.
    extra = tmp_path / "src" / "repro" / "blockchain" / "extra.py"
    extra.write_text(
        "import hashlib\n"
        "import time\n"
        "\n"
        "def fresh():\n"
        "    return hashlib.sha256(str(time.time()).encode()).digest()\n"
    )
    assert main(["src", "--root", str(tmp_path),
                 "--baseline", str(baseline)]) == 1


def test_cli_baseline_fails_on_a_stale_entry(tmp_path, capsys):
    from tools.analysis.__main__ import main

    _write_tmp_tree(tmp_path)
    baseline = tmp_path / "baseline.json"
    assert main(["src", "--root", str(tmp_path),
                 "--baseline", str(baseline), "--update-baseline"]) == 0
    waived = set(load_baseline(baseline))
    capsys.readouterr()

    # The finding is fixed, its waiver stays: the run names it and fails.
    (tmp_path / "src" / "repro" / "blockchain" / "seal.py").write_text(
        "import hashlib\n"
        "\n"
        "def seal(data):\n"
        "    return hashlib.sha256(data).digest()\n"
    )
    assert main(["src", "--root", str(tmp_path),
                 "--baseline", str(baseline)]) == 1
    captured = capsys.readouterr()
    assert "nothing new" not in captured.out
    stale = [line.split()[3] for line in captured.err.splitlines()
             if line.startswith("stale baseline entry")]
    assert stale and set(stale) <= waived

    # Rewriting the baseline drops the stale entry and the run passes.
    assert main(["src", "--root", str(tmp_path),
                 "--baseline", str(baseline), "--update-baseline"]) == 0
    assert main(["src", "--root", str(tmp_path),
                 "--baseline", str(baseline)]) == 0


def test_cli_sarif_output_parses(tmp_path, capsys):
    from tools.analysis.__main__ import main

    _write_tmp_tree(tmp_path)
    code = main(["src", "--root", str(tmp_path), "--format", "sarif"])
    assert code == 1
    sarif = json.loads(capsys.readouterr().out)
    assert sarif["version"] == "2.1.0"
    assert sarif["runs"][0]["results"]
