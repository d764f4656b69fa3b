import itertools

import pytest

from fusenet.dataset import CLASS_NAMES, save_jsonl
from fusenet.embeddings import random_table
from fusenet.synth import (CLASS_PROFILE, CLASS_TEXT_POOL, SIGNAL_SHARED_GROUP,
                           TEXT_SHARED_GROUP, bayes_ceilings, generate_synthetic,
                           vocabulary)
from fusenet.textprep import normalize, tokenize


class TestGeneratorContracts:
    def test_deterministic_files(self, tmp_path):
        a, _ = generate_synthetic(1300, 0.05, seed=5)
        b, _ = generate_synthetic(1300, 0.05, seed=5)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_jsonl(a, pa)
        save_jsonl(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_label_histogram_exact(self):
        examples, manifest = generate_synthetic(1307, 0.1, seed=2)
        counts = {name: 0 for name in CLASS_NAMES}
        for ex in examples:
            counts[ex.label] += 1
        assert counts == manifest["class_counts"]
        assert sum(counts.values()) == 1307
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            generate_synthetic(129, 0.0, seed=0)

    def test_noise_range_enforced(self):
        with pytest.raises(ValueError):
            generate_synthetic(1300, 1.0, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic(1300, -0.1, seed=0)

    def test_ids_unique_and_numerical_width_constant(self):
        examples, _ = generate_synthetic(260, 0.0, seed=1)
        ids = {ex.id for ex in examples}
        assert len(ids) == 260
        widths = {len(ex.numerical) for ex in examples}
        assert widths == {20}


class TestPlantedStructure:
    def test_confusable_groups_give_at_least_three_pairs_each(self):
        text_pairs = [
            (a, b) for a, b in itertools.combinations(CLASS_NAMES, 2)
            if CLASS_TEXT_POOL[a] == CLASS_TEXT_POOL[b]
        ]
        signal_pairs = [
            (a, b) for a, b in itertools.combinations(CLASS_NAMES, 2)
            if CLASS_PROFILE[a] == CLASS_PROFILE[b]
        ]
        assert len(text_pairs) >= 3
        assert len(signal_pairs) >= 3
        # Pairs sharing text must differ in signals and vice versa.
        for a, b in text_pairs:
            assert CLASS_PROFILE[a] != CLASS_PROFILE[b]
        for a, b in signal_pairs:
            assert CLASS_TEXT_POOL[a] != CLASS_TEXT_POOL[b]

    def test_groups_cover_six_classes_each(self):
        assert len(TEXT_SHARED_GROUP) == 6
        assert len(SIGNAL_SHARED_GROUP) == 6
        assert not set(TEXT_SHARED_GROUP) & set(SIGNAL_SHARED_GROUP)

    def test_noise_zero_ceilings(self):
        ceilings = bayes_ceilings(0.0)
        assert ceilings["fusion_top1"] == pytest.approx(1.0, abs=1e-12)
        assert ceilings["text_only_top1"] < 1.0
        assert ceilings["signals_only_top1"] < 1.0
        # Enumerated directly: 6 unique + 1 per shared group + Other.
        assert ceilings["text_only_top1"] == pytest.approx(8 / 13, abs=1e-12)
        assert ceilings["text_only_top3"] == pytest.approx(10 / 13, abs=1e-12)

    def test_ceilings_pinned_to_the_bit(self):
        # float.hex at noise 0.05: the manifest's ceilings are bit-stable, so
        # the fused product must stay (prior * p_text) * p_signal.
        assert {key: value.hex() for key, value in bayes_ceilings(0.05).items()} == {
            "text_only_top1": "0x1.2c24c24c24c25p-1",
            "text_only_top3": "0x1.7ae9ae9ae9ae9p-1",
            "signals_only_top1": "0x1.2c24c24c24c25p-1",
            "signals_only_top3": "0x1.7ae9ae9ae9aeap-1",
            "fusion_top1": "0x1.e1be5be5be5bcp-1",
            "fusion_top3": "0x1.efa22d5608948p-1",
            "chance_top3": "0x1.d89d89d89d89ep-3",
        }

    def test_ceilings_monotone_in_noise(self):
        c0 = bayes_ceilings(0.0)
        c1 = bayes_ceilings(0.2)
        for key in ("fusion_top3", "text_only_top3", "signals_only_top3"):
            assert c1[key] < c0[key]

    def test_manifest_records_tables_and_ceilings(self):
        _, manifest = generate_synthetic(130, 0.0, seed=0)
        assert manifest["class_text_pool"] == CLASS_TEXT_POOL
        assert manifest["class_profile"] == CLASS_PROFILE
        assert set(manifest["ceilings"]) >= {
            "text_only_top1", "signals_only_top1", "fusion_top1",
            "text_only_top3", "signals_only_top3", "fusion_top3",
        }
        assert manifest["confusable"]["signal_shared_groups"] == [list(SIGNAL_SHARED_GROUP)]


class TestVocabulary:
    def test_generated_tokens_covered(self):
        vocab = set(vocabulary())
        examples, _ = generate_synthetic(390, 0.3, seed=9)
        for ex in examples:
            for tok in tokenize(normalize(ex.text), 100).tokens:
                assert tok in vocab, (tok, ex.text)

    def test_zero_oov_with_generated_table(self):
        words = vocabulary()
        table = random_table(words, 8, seed=0)
        examples, _ = generate_synthetic(130, 0.0, seed=3)
        from fusenet.embeddings import embed_sequence
        for ex in examples:
            seq = embed_sequence(table, tokenize(normalize(ex.text), 40), 40)
            assert seq.oov_count == 0

    def test_signal_group_profiles_identical_and_texts_distinct(self):
        pools = {CLASS_TEXT_POOL[c] for c in SIGNAL_SHARED_GROUP}
        assert len(pools) == len(SIGNAL_SHARED_GROUP)
        assert {CLASS_PROFILE[c] for c in SIGNAL_SHARED_GROUP} == {"servicing_active"}
