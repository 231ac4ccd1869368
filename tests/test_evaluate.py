"""Manifest schema and stratified-evaluation tests (stub decoders)."""

import numpy as np
import pytest

from codec_infill import evaluate, metrics
from codec_infill.errors import ConfigError
from codec_infill.evaluate import (
    EvalRecord,
    bucket_for,
    load_manifest,
    masked_reconstruction_eval,
    run_eval,
    sample_reconstruction_cases,
    synthesize_manifest,
    validate_record,
)
from codec_infill.infer import EditConfig, SamplingConfig
from codec_infill.model import ModelConfig
from codec_infill.synthcodec import ToyCodecConfig, gen_corpus

from helpers import StubDecoder, identity_records, save_manifest

CODEC = ToyCodecConfig()
MODEL_CFG = ModelConfig(
    codebook_sizes=CODEC.codebook_sizes, text_vocab_size=CODEC.alphabet_size
)


class TestManifestSchema:
    def test_buckets(self):
        assert bucket_for(1) == "1-2"
        assert bucket_for(2) == "1-2"
        assert bucket_for(3) == "3-6"
        assert bucket_for(6) == "3-6"
        assert bucket_for(7) == "7-12"
        assert bucket_for(12) == "7-12"
        with pytest.raises(ConfigError):
            bucket_for(13)

    def test_identity_record_valid(self):
        validate_record(EvalRecord("r0", [1, 2, 3], [1, 2, 3]))

    def test_identity_record_with_types_rejected(self):
        with pytest.raises(ConfigError):
            validate_record(EvalRecord("r0", [1, 2, 3], [1, 2, 3], edit_types=["deletion"]))

    def test_mismatched_type_rejected(self):
        record = EvalRecord(
            "r1", [1, 2, 3], [1, 9, 3], edit_types=["insertion"], num_spans=1, bucket="1-2"
        )
        with pytest.raises(ConfigError):
            validate_record(record)

    def test_mismatched_bucket_rejected(self):
        record = EvalRecord(
            "r2", [1, 2, 3], [1, 9, 3], edit_types=["substitution"], num_spans=1, bucket="3-6"
        )
        with pytest.raises(ConfigError):
            validate_record(record)

    def test_save_load_round_trip(self, tmp_path):
        corpus = gen_corpus(10, (6, 12), CODEC, seed=0)
        rng = np.random.default_rng(1)
        records = synthesize_manifest(corpus, CODEC, rng, 8)
        records += identity_records(corpus, rng, 2)
        path = tmp_path / "manifest.jsonl"
        save_manifest(path, records)
        assert '"bucket":null' in path.read_text()  # an identity record's bucket is written as null
        loaded = load_manifest(path)
        assert loaded == records

    def test_synthesized_records_are_consistent(self):
        corpus = gen_corpus(20, (6, 12), CODEC, seed=2)
        rng = np.random.default_rng(3)
        for record in synthesize_manifest(corpus, CODEC, rng, 30):
            validate_record(record)


class TestRunEval:
    def make_inputs(self, num_identity=3):
        corpus = gen_corpus(8, (5, 9), CODEC, seed=4)
        rng = np.random.default_rng(5)
        records = identity_records(corpus, rng, num_identity)
        dumps = {}
        for record in records:
            utt_id = record.id.split("_", 1)[1]
            utt = next(u for u in corpus if u.id == utt_id)
            dumps[record.id] = utt.tokens
        return records, dumps

    def test_identity_manifest_all_zero(self):
        records, dumps = self.make_inputs()
        decoder = StubDecoder(MODEL_CFG, 3)
        outcome = run_eval(
            decoder, MODEL_CFG, records, dumps, CODEC, EditConfig(), SamplingConfig(seed=6)
        )
        assert outcome.skipped == 0
        assert set(outcome.strata) == {"identity", "all|total"}
        for row in outcome.strata.values():
            assert row["mean_ser"] == 0.0
            assert row["mean_mcd"] == 0.0
        assert decoder.sessions == 0

    def test_strata_counts_match_manifest(self):
        records, dumps = self.make_inputs(num_identity=5)
        decoder = StubDecoder(MODEL_CFG, 3)
        outcome = run_eval(
            decoder, MODEL_CFG, records, dumps, CODEC, EditConfig(), SamplingConfig(seed=7)
        )
        assert outcome.strata["identity"]["count"] == 5
        assert outcome.strata["all|total"]["count"] == 5

    def test_missing_dump_skipped_and_counted(self):
        records, dumps = self.make_inputs()
        del dumps[records[0].id]
        decoder = StubDecoder(MODEL_CFG, 3)
        outcome = run_eval(
            decoder, MODEL_CFG, records, dumps, CODEC, EditConfig(), SamplingConfig(seed=8)
        )
        assert outcome.skipped == 1
        assert len(outcome.reports) == len(records) - 1

    def test_output_shorter_than_one_window_is_scored(self):
        """Every word substituted and one generated frame: a 320-sample output, under the 640-sample window."""
        (utt,) = gen_corpus(1, (5, 9), CODEC, seed=4)
        edited = [(s + 1) % CODEC.alphabet_size for s in utt.transcript]
        record = EvalRecord("r0", list(utt.transcript), edited, ["substitution"], 1, bucket_for(len(edited)))
        outcome = run_eval(
            StubDecoder(MODEL_CFG, 1), MODEL_CFG, [record], {"r0": utt.tokens}, CODEC,
            EditConfig(), SamplingConfig(seed=9),
        )
        (row,) = outcome.reports
        assert row["candidate_lengths"] == [1] * 10
        for key in ("ser", "mcd", "f0_dist", "energy_dist"):
            assert np.isfinite(row[key])
        assert row["mcd"] > 0.0

    def test_scores_at_the_codec_sample_rate(self, monkeypatch):
        """A 24 kHz codec's renderings are analysed at 24 kHz, not at a default rate."""
        codec = ToyCodecConfig(sample_rate=24000)
        (utt,) = gen_corpus(1, (5, 9), codec, seed=4)
        edited = list(utt.transcript)
        edited[1] = (edited[1] + 1) % codec.alphabet_size
        record = EvalRecord("r0", list(utt.transcript), edited, ["substitution"], 1, "1-2")
        rates = []

        def spy(name):
            def call(wav_ref, wav_gen, sample_rate):
                rates.append(sample_rate)
                return getattr(metrics, name)(wav_ref, wav_gen, sample_rate)
            return call

        monkeypatch.setattr(evaluate, "mcd_distance", spy("mcd_distance"))
        monkeypatch.setattr(evaluate, "f0_distance", spy("f0_distance"))
        outcome = run_eval(
            StubDecoder(MODEL_CFG, 4), MODEL_CFG, [record], {"r0": utt.tokens}, codec,
            EditConfig(), SamplingConfig(seed=9),
        )
        assert rates == [24000, 24000]
        assert np.isfinite(outcome.reports[0]["f0_dist"])


class TestReconstructionCases:
    def test_spans_within_bounds_and_width(self):
        corpus = gen_corpus(10, (5, 9), CODEC, seed=9)
        rng = np.random.default_rng(10)
        cases = sample_reconstruction_cases(corpus, rng, 50, max_span_symbols=5)
        by_id = {u.id: u for u in corpus}
        for case in cases:
            utt = by_id[case.utterance_id]
            assert 0 <= case.symbol_start < case.symbol_end <= len(utt.transcript)
            assert case.symbol_end - case.symbol_start <= 5

    def test_reconstruction_eval_keeps_unedited_frames(self):
        corpus = gen_corpus(6, (5, 9), CODEC, seed=11)
        cases = sample_reconstruction_cases(corpus, np.random.default_rng(12), 4, max_span_symbols=2)
        outcome = masked_reconstruction_eval(
            StubDecoder(MODEL_CFG, 5), MODEL_CFG, CODEC, {u.id: u for u in corpus}, cases,
            SamplingConfig(seed=13),
        )
        assert outcome.num_cases == outcome.unedited_intact_count == 4
        assert [row["generated_frames"] for row in outcome.cases] == [5] * 4
        assert not any(row["truncated"] for row in outcome.cases)
