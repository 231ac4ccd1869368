"""JSON files: the one written form, and one typed error for every malformed input."""

import json
import re
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codec_infill.errors import CodecInfillError, ConfigError
from codec_infill.evaluate import load_manifest, synthesize_manifest
from codec_infill.jsonio import (
    append_json_line,
    config_from_json,
    config_to_json,
    get_field,
    read_json,
    read_json_lines,
    write_json,
    write_json_lines,
)
from codec_infill.model import ModelConfig
from codec_infill.rearrange import MaskSamplingConfig
from codec_infill.synthcodec import ToyCodecConfig, gen_corpus, load_codec_config, load_corpus, write_corpus
from codec_infill.tokens import read_token_dump
from codec_infill.train import TrainConfig

from helpers import save_manifest

CODEC = ToyCodecConfig()


class TestWrittenForm:
    def test_json_is_indented_sorted_and_ends_in_a_newline(self, tmp_path):
        write_json(tmp_path / "a.json", {"b": (1, 2), "a": None})
        assert (tmp_path / "a.json").read_text() == '{\n  "a": null,\n  "b": [\n    1,\n    2\n  ]\n}\n'

    def test_json_lines_are_compact_sorted_and_streamed(self, tmp_path):
        write_json_lines(tmp_path / "a.jsonl", ({"b": i, "a": [i]} for i in range(2)))
        assert (tmp_path / "a.jsonl").read_text() == '{"a":[0],"b":0}\n{"a":[1],"b":1}\n'

    def test_appended_lines_match_the_written_form(self, tmp_path):
        write_json_lines(tmp_path / "a.jsonl", [{"b": 0, "a": [0]}])
        append_json_line(tmp_path / "a.jsonl", {"b": 1, "a": [1]})
        append_json_line(tmp_path / "b.jsonl", {"a": 2})
        assert (tmp_path / "a.jsonl").read_text() == '{"a":[0],"b":0}\n{"a":[1],"b":1}\n'
        assert read_json_lines(tmp_path / "b.jsonl", dict) == [{"a": 2}]

    def test_blank_lines_are_skipped_but_counted(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text('{"a": 1}\n\n{"a": 2}\n')
        assert read_json_lines(path, lambda payload: get_field(payload, "a", int)) == [1, 2]
        path.write_text('{"a": 1}\n\n{"a": 2}\n \n{"a": "x"}\n')
        with pytest.raises(ConfigError, match=r"a\.jsonl line 5: field 'a' is malformed"):
            read_json_lines(path, lambda payload: get_field(payload, "a", int))


class TestConfigFromJson:
    def test_json_round_trip_restores_tuples_and_nested_configs(self, tmp_path):
        for cfg, cls in [
            (ToyCodecConfig(render_gains=(1.0, 0.5, 0.25, 0.125)), ToyCodecConfig),
            (TrainConfig(total_steps=7, mask=MaskSamplingConfig(max_spans=2)), TrainConfig),
        ]:
            write_json(tmp_path / "cfg.json", config_to_json(cfg))
            assert read_json(tmp_path / "cfg.json", lambda payload: config_from_json(cls, payload, "x")) == cfg

    def test_invalid_value_names_the_section(self):
        with pytest.raises(ConfigError, match=r"'train\.mask'"):
            config_from_json(TrainConfig, {"mask": {"min_spans": 0}}, "train")

    @pytest.mark.parametrize(
        "cls, payload, named",
        [
            (ToyCodecConfig, {"alphabet_size": "30"}, "x.alphabet_size"),
            (ToyCodecConfig, {"alphabet_size": 30.0}, "x.alphabet_size"),
            (ToyCodecConfig, {"alphabet_size": True}, "x.alphabet_size"),
            (ToyCodecConfig, {"jitter_seed": "3"}, "x.jitter_seed"),
            (ToyCodecConfig, {"render_gains": 1.0}, "x.render_gains"),
            (ToyCodecConfig, {"render_gains": [1.0, "a", 0.1, 0.1]}, "x.render_gains[1]"),
            (TrainConfig, {"mask": {"rate": "1"}}, "x.mask.rate"),
            (ModelConfig, {"dtype": 32}, "x.dtype"),
        ],
    )
    def test_value_of_the_wrong_type_names_the_field(self, cls, payload, named):
        with pytest.raises(ConfigError, match=re.escape(f"'{named}'")):
            config_from_json(cls, payload, "x")

    @pytest.mark.parametrize(
        "cls, text, named",
        [
            (TrainConfig, '{"mask": {"rate": NaN}}', "x.mask.rate"),
            (ModelConfig, '{"init_scale": Infinity}', "x.init_scale"),
            (ModelConfig, '{"loss_weights": [1, -Infinity, 1, 1]}', "x.loss_weights[1]"),
            (ToyCodecConfig, '{"render_gains": [1, 1e999, 1, 1]}', "x.render_gains[1]"),
            (ModelConfig, '{"init_scale": 1%s}' % ("0" * 400), "x.init_scale"),
        ],
    )
    def test_float_that_is_not_finite_names_the_field(self, cls, text, named):
        """Python's json reads NaN, Infinity and an overflowing 1e999 as floats, and 10**400 as an int no float holds."""
        with pytest.raises(ConfigError, match=re.escape(f"'{named}' must be finite")):
            config_from_json(cls, json.loads(text), "x")

    def test_declared_types_accept_their_json_forms(self):
        cfg = config_from_json(ToyCodecConfig, {"render_gains": [1, 0.5, 0.25, 0.125], "jitter_seed": None}, "x")
        assert cfg.render_gains == (1, 0.5, 0.25, 0.125) and cfg.jitter_seed is None
        assert config_from_json(ToyCodecConfig, {"jitter_seed": 3}, "x").jitter_seed == 3

    def test_model_dtype_numpy_does_not_know_is_rejected(self):
        with pytest.raises(ConfigError, match="dtype 'float99'"):
            config_from_json(ModelConfig, {"dtype": "float99"}, "model")
        with pytest.raises(ConfigError, match="dtype 'int32'"):
            config_from_json(ModelConfig, {"dtype": "int32"}, "model")


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    """A valid corpus plus an eval manifest, and a scratch copy the fuzz test corrupts."""
    valid = tmp_path_factory.mktemp("valid")
    corpus = gen_corpus(3, (2, 3), CODEC, seed=0)
    write_corpus(valid, corpus, CODEC)
    records = synthesize_manifest(corpus, CODEC, np.random.default_rng(0), 2, max_span_words=1)
    save_manifest(valid / "eval.jsonl", records)
    work = tmp_path_factory.mktemp("work")
    shutil.copytree(valid, work, dirs_exist_ok=True)
    return valid, work


READERS = {
    "tokens.jsonl": read_token_dump,
    "eval.jsonl": load_manifest,
    "codec_config.json": load_codec_config,
    "manifest.jsonl": lambda path: load_corpus(path.parent),
}
TOKENS = [b"", b"1", b"-", b'"', b"[", b"]", b"{", b"}", b",", b":", b"null", b"1e999", b"Infinity", b"\xff", b"9" * 20]


class TestEveryMalformedFileFailsTyped:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        name=st.sampled_from(sorted(READERS)),
        where=st.floats(0.0, 1.0),
        cut=st.integers(0, 8),
        token=st.sampled_from(TOKENS),
        truncate=st.booleans(),
    )
    def test_truncated_or_corrupted_file(self, corpus_files, name, where, cut, token, truncate):
        valid, work = corpus_files
        data = (valid / name).read_bytes()
        i = int(where * len(data))
        (work / name).write_bytes(data[:i] if truncate else data[:i] + token + data[i + cut:])
        try:
            READERS[name](work / name)
        except (CodecInfillError, FileNotFoundError):
            pass  # FileNotFoundError: a corrupted dump name in the corpus manifest (exit 3)
        finally:
            (work / name).write_bytes(data)
