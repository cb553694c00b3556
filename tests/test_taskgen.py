"""Snippet selection, placeholder construction, serialization, splits."""

import pytest

from smartpaste.minilang import reconstruct, tokenize
from smartpaste.taskgen import (InsufficientData, NoPlaceholders,
                                extract_instances, instance_from_json,
                                instance_to_json, make_instance,
                                select_snippets, split_corpus)

from conftest import (SUM_POSITIVE, SUM_POSITIVE_TRUTH_NAMES,
                      SUM_POSITIVE_USES)


class TestExtraction:
    def test_loop_snippet_placeholders(self, sum_positive_program,
                                       sum_positive_symbols):
        # the for statement spans tokens 17..46
        inst = make_instance(sum_positive_program, (17, 46))
        assert [p.token_index for p in inst.placeholders] == \
            SUM_POSITIVE_USES
        truths = [sum_positive_program.symbol(p.truth).name
                  for p in inst.placeholders]
        assert truths == SUM_POSITIVE_TRUTH_NAMES
        for p in inst.placeholders:
            assert set(p.candidates) == set(sum_positive_symbols.values())

    def test_same_type_candidates(self, sum_positive_program,
                                  sum_positive_symbols):
        inst = make_instance(sum_positive_program, (17, 46))
        by_token = {p.token_index: p for p in inst.placeholders}
        ints = {sum_positive_symbols[n] for n in ("lim", "sum", "i")}
        assert set(by_token[24].same_type_candidates) == ints  # i : int
        assert by_token[33].same_type_candidates == \
            [sum_positive_symbols["arr"]]  # arr : int[]

    def test_defining_occurrences_not_placeholdered(self,
                                                    sum_positive_program):
        inst = make_instance(sum_positive_program, (17, 46))
        assert 20 not in [p.token_index for p in inst.placeholders]

    def test_span_without_uses_rejected(self, sum_positive_program):
        with pytest.raises(NoPlaceholders):
            make_instance(sum_positive_program, (11, 16))  # int sum = 0;

    def test_select_snippets_bounds(self, sum_positive_program):
        spans = select_snippets(sum_positive_program, max_tokens=10)
        assert spans
        assert all(hi - lo + 1 <= 10 for lo, hi in spans)

    def test_select_includes_sibling_runs(self, sum_positive_program):
        spans = select_snippets(sum_positive_program, max_tokens=80)
        # the run decl+loop+return covers the whole body
        assert (12, 49) in spans

    def test_extract_ids_unique(self, sum_positive_program):
        insts = extract_instances(sum_positive_program, 80)
        ids = [i.instance_id for i in insts]
        assert len(set(ids)) == len(ids)


class TestSerialization:
    def test_round_trip(self, sum_positive_program):
        inst = make_instance(sum_positive_program, (17, 46), "fix#0")
        line = instance_to_json(inst)
        back = instance_from_json(line)
        assert back.instance_id == "fix#0"
        assert back.snippet_span == inst.snippet_span
        assert [t.text for t in back.program.tokens] == \
            [t.text for t in inst.program.tokens]
        assert [(p.token_index, p.truth, p.candidates)
                for p in back.placeholders] == \
            [(p.token_index, p.truth, p.candidates)
             for p in inst.placeholders]
        # a second round trip is byte-identical
        assert instance_to_json(back) == line

    def test_reconstruct_truth_restores_names(self, sum_positive_program):
        inst = make_instance(sum_positive_program, (17, 46))
        prog = inst.program
        names = {p.token_index: prog.symbol(p.truth).name
                 for p in inst.placeholders}
        assert reconstruct(prog.tokens, names) == SUM_POSITIVE

    def test_reconstruct_other_symbol(self, sum_positive_program,
                                      sum_positive_symbols):
        inst = make_instance(sum_positive_program, (17, 46))
        names = {p.token_index: "sum" for p in inst.placeholders}
        texts = [t.text for t in tokenize(
            reconstruct(inst.program.tokens, names))]
        assert all(texts[p.token_index] == "sum" for p in inst.placeholders)
        assert [x for k, x in enumerate(texts) if k not in names] == \
            [t.text for t in sum_positive_program.tokens
             if t.index not in names]


class TestSplits:
    FILES = {f"proj{p}": [f"proj{p}/f{k}.ml0" for k in range(5)]
             for p in range(8)}

    def test_partition_is_exact(self):
        split = split_corpus(self.FILES, seed=3)
        everything = split.train + split.valid + split.test + \
            split.unseen_test
        assert sorted(everything) == sorted(
            f for fs in self.FILES.values() for f in fs)
        assert len(split.train) == 24  # 60% of 40
        assert len(split.valid) == 2   # 5% of 40

    def test_unseen_projects_held_out_whole(self):
        split = split_corpus(self.FILES, seed=3, unseen_fraction=0.25)
        unseen_projects = {f.split("/")[0] for f in split.unseen_test}
        assert len(unseen_projects) == 2
        for f in split.train + split.valid + split.test:
            assert f.split("/")[0] not in unseen_projects

    def test_deterministic(self):
        a = split_corpus(self.FILES, seed=9, unseen_fraction=0.25)
        b = split_corpus(self.FILES, seed=9, unseen_fraction=0.25)
        assert (a.train, a.valid, a.test, a.unseen_test) == \
            (b.train, b.valid, b.test, b.unseen_test)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            split_corpus({"p": ["p/a.ml0"]}, seed=0)
