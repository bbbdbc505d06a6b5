import pytest

from clonelab.combinatorics import (
    BlockSequence,
    Coloring,
    IndependentFamily,
    InvalidColoringError,
    anti_ramsey_search,
    builtin_coloring,
    constant_coloring,
    format_coloring_table,
    hausdorff_family,
    parse_coloring_table,
    partition_check,
    sum_coloring,
    verify_independent,
)
from clonelab.finite import ResourceLimitError


class TestColorings:
    @pytest.mark.parametrize("name", ["constant", "sum", "product", "interleave"])
    def test_builtins_pass_the_symmetry_audit(self, name):
        coloring = builtin_coloring(name, 6)
        assert coloring.mu == 6
        assert coloring(17, 31) == coloring(31, 17)

    def test_asymmetric_fn_rejected(self):
        with pytest.raises(InvalidColoringError):
            Coloring(4, lambda a, b: (a - b) % 4, name="skew")

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidColoringError):
            Coloring(2, lambda a, b: a + b, name="big")

    def test_table_round_trip(self):
        text = format_coloring_table("toy", 2, [[0, 1], [1, 0]])
        coloring = parse_coloring_table(text)
        assert coloring(0, 1) == 1
        assert coloring.mu == 2
        with pytest.raises(ValueError):
            coloring(0, 5)

    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_table_without_header_rejected(self, text):
        with pytest.raises(ValueError, match="no header line"):
            parse_coloring_table(text)

    def test_asymmetric_table_rejected(self):
        with pytest.raises(InvalidColoringError):
            parse_coloring_table(format_coloring_table("bad", 2, [[0, 1], [0, 0]]))


class TestPartitionCheck:
    def test_ramsey_threshold(self):
        assert partition_check(6, 3, 2, 2) is True
        assert partition_check(5, 3, 2, 2) is False

    def test_pigeonhole(self):
        assert partition_check(3, 2, 1, 2) is True
        assert partition_check(2, 2, 1, 2) is False  # two points, two colors

    def test_antitone_in_n(self):
        verdicts = [partition_check(n, 3, 2, 2) for n in (5, 6, 7)]
        assert verdicts == [False, True, True]
        for smaller, larger in zip(verdicts, verdicts[1:]):
            assert (not smaller) or larger

    def test_general_color_path(self):
        assert partition_check(3, 3, 2, 3) is False  # rainbow triangle
        assert partition_check(3, 2, 2, 3) is True   # one edge is trivially constant

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            partition_check(30, 4, 2, 2)


class TestAntiRamseySearch:
    def test_constant_coloring_hits_first_pair(self):
        blocks = BlockSequence.of({0, 1}, {2, 3}, {4, 5})
        assert anti_ramsey_search(constant_coloring(3, 0), blocks, 0) == (0, 1)

    def test_wrong_constant_finds_nothing(self):
        blocks = BlockSequence.of({0, 1}, {2, 3})
        assert anti_ramsey_search(constant_coloring(3, 1), blocks, 0) is None

    def test_parity_on_even_singletons(self):
        blocks = BlockSequence.of({0}, {2}, {4})
        assert anti_ramsey_search(sum_coloring(2), blocks, 0) == (0, 1)

    def test_found_rectangle_reverified(self):
        blocks = BlockSequence.of({0, 4}, {2, 6}, {1, 3})
        coloring = sum_coloring(2)
        hit = anti_ramsey_search(coloring, blocks, 0)
        assert hit is not None
        i, j = hit
        assert all(
            coloring(a, b) == 0
            for a in blocks.blocks[i]
            for b in blocks.blocks[j]
        )

    def test_bad_blocks_rejected(self):
        with pytest.raises(ValueError):
            BlockSequence.of({0, 1}, {1, 2})
        with pytest.raises(ValueError):
            BlockSequence.of({0, 1}, {2})
        with pytest.raises(ValueError):
            anti_ramsey_search(constant_coloring(2, 0), BlockSequence.of({0}, {1}), 5)


class TestIndependentFamilies:
    def test_single_set_and_complement_nonempty(self):
        fam = hausdorff_family(1, 2)
        assert verify_independent(fam, 1)

    def test_three_indices_all_signed_combinations(self):
        fam = hausdorff_family(3, 4)
        assert verify_independent(fam, 3)

    def test_complementary_pair_rejected(self):
        fam = hausdorff_family(3, 4)
        universe = frozenset(range(len(fam.base)))
        half = frozenset(range(len(fam.base) // 2))
        pair = IndependentFamily(fam.base, (half, universe - half))
        assert not verify_independent(pair, 2)

    def test_width_zero_vacuous(self):
        pair = IndependentFamily(tuple(range(4)), (frozenset({0}), frozenset({1, 2, 3})))
        assert verify_independent(pair, 0)

    def test_assorted_shapes(self):
        for m, q in ((2, 3), (3, 3), (2, 4)):
            fam = hausdorff_family(m, q)
            assert verify_independent(fam, min(3, m))

    def test_indices_exceed_ground_rejected(self):
        with pytest.raises(ValueError):
            hausdorff_family(5, 4)
