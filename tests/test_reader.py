"""The one document reader, ``network.read_mapping``: libyaml's C parser
where PyYAML has it, else PyYAML's Python parser, with the same results."""

import math
from pathlib import Path

import pytest
import yaml

from sdta import ParseError, fixture_path, parse_network, parse_scenario, parse_ttd
from sdta import network
from sdta.cli import main

FIXTURE_DIR = Path(fixture_path("sf.net.yaml")).parent
DOCUMENTS = sorted(p.name for p in FIXTURE_DIR.glob("*.yaml"))

MALFORMED = {
    "unclosed flow sequence": "nodes: [1, 2\norigin: 1\n",
    "tab indentation": "links:\n\t- {id: a}\n",
    "unterminated quoted scalar": "origin: 'a\ndestination: b\n",
    "bad indentation": "links:\n  id: a\n from: 1\n",
}


@pytest.fixture(params=["libyaml", "python"])
def parser(request, monkeypatch):
    """Which parser ``read_mapping`` uses: the module's own choice, or the
    Python parser it falls back to where PyYAML was built without libyaml."""
    if request.param == "python":
        monkeypatch.setattr(network, "_Loader",
                            type("PythonLoader", (network._UniqueKeys, yaml.SafeLoader), {}))
    elif not yaml.__with_libyaml__:
        pytest.skip("PyYAML was built without libyaml")
    return request.param


def assert_same_types(got, expected, where="root"):
    """``got == expected`` with the type of every key and leaf equal too,
    so an int 1 never passes for a float 1.0."""
    assert type(got) is type(expected), where
    if isinstance(expected, dict):
        assert len(got) == len(expected), where
        for (k, v), (ek, ev) in zip(got.items(), expected.items()):
            assert_same_types(k, ek, f"{where} key {ek!r}")
            assert_same_types(v, ev, f"{where}[{ek!r}]")
    elif isinstance(expected, list):
        assert len(got) == len(expected), where
        for i, (v, ev) in enumerate(zip(got, expected)):
            assert_same_types(v, ev, f"{where}[{i}]")
    elif isinstance(expected, float) and math.isnan(expected):
        assert math.isnan(got), where
    else:
        assert got == expected, where


def test_module_picks_the_c_parser_when_pyyaml_has_it():
    assert issubclass(network._Loader, yaml.SafeLoader) != yaml.__with_libyaml__
    if yaml.__with_libyaml__:
        assert issubclass(network._Loader, yaml.CSafeLoader)


@pytest.mark.parametrize("name", DOCUMENTS)
def test_fixture_reads_as_safe_load_type_for_type(name, parser):
    text = (FIXTURE_DIR / name).read_text()
    assert_same_types(network.read_mapping(text), yaml.safe_load(text))
    assert_same_types(network.read_mapping(FIXTURE_DIR / name), yaml.safe_load(text))


def test_nine_documents_ship():
    assert len(DOCUMENTS) == 9


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_yaml_is_a_parse_error(text, parser):
    with pytest.raises(ParseError, match="invalid document"):
        network.read_mapping(text)


def _repeat_line(text: str, line: str) -> str:
    assert text.count(line) == 1
    return text.replace(line, line + line)


def test_repeated_key_in_a_network_is_a_parse_error(parser):
    text = (FIXTURE_DIR / "twolinks.net.yaml").read_text()
    first = text[text.index("links:"):]
    # a second links block would silently replace the first
    with pytest.raises(ParseError, match="repeated key 'links'"):
        parse_network(text + first)


def test_repeated_key_in_a_scenario_is_a_parse_error(parser):
    net = parse_network((FIXTURE_DIR / "twolinks.net.yaml").read_text())
    text = _repeat_line((FIXTURE_DIR / "twolinks.scn.yaml").read_text(), "steps: 600\n")
    with pytest.raises(ParseError, match="repeated key 'steps'"):
        parse_scenario(text, net)


def test_repeated_key_in_a_ttd_is_a_parse_error(parser):
    text = _repeat_line((FIXTURE_DIR / "parallel3.ttd.yaml").read_text(),
                        "      b: [3, 4, 3, 9]\n")
    with pytest.raises(ParseError, match="repeated key 'b'"):
        parse_ttd(text)


def test_repeated_key_in_a_flow_mapping_is_a_parse_error(parser):
    with pytest.raises(ParseError, match="repeated key 'id'"):
        network.read_mapping("links:\n  - {id: a, from: 1, id: b}\n")


def test_a_merge_key_may_still_be_overridden(parser):
    doc = network.read_mapping("base: &b {vf_mps: 10, w_mps: 5}\nlink:\n  <<: *b\n  w_mps: 4\n")
    assert doc["link"] == {"vf_mps": 10, "w_mps": 4}


def test_a_value_key_reads_as_text(parser):
    # YAML's "=" key gets its text tag from the merge pass, which must run
    # before the keys are compared
    assert network.read_mapping("=: 1\nx: 2\n") == {"=": 1, "x": 2}
    with pytest.raises(ParseError, match="repeated key '='"):
        network.read_mapping("=: 1\n=: 2\n")


def test_repeated_key_is_exit_2(tmp_path, capsys):
    path = tmp_path / "net.yaml"
    text = (FIXTURE_DIR / "twolinks.net.yaml").read_text()
    path.write_text(text + "origin: 1\n")
    assert main(["validate", str(path)]) == 2
    assert "repeated key 'origin'" in capsys.readouterr().err
