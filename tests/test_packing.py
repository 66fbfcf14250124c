"""Bit packing and popcount distances against per-bit reference loops."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusehash import load_codes, pack_codes, sign_to_pm1, store_codes, unpack_codes
from fusehash.exceptions import InvalidParameterError, ShapeError
from fusehash.packing import CodeMatrix, _words, packed_hamming


def naive_hamming(a, b):
    """Reference distance: count disagreeing sign entries one by one."""
    return sum(1 for x, y in zip(a, b) if x != y)


class TestSignToPm1:
    def test_strict_signs(self):
        out = sign_to_pm1(np.array([-2.5, -1e-300, 3.0, 0.5]))
        np.testing.assert_array_equal(out, [-1, -1, 1, 1])

    def test_zero_maps_to_plus_one(self):
        out = sign_to_pm1(np.array([0.0, -0.0, 0.0]))
        np.testing.assert_array_equal(out, [1, 1, 1])

    def test_dtype_is_int8(self):
        assert sign_to_pm1(np.zeros((3, 4))).dtype == np.int8

    def test_nan_maps_to_minus_one(self):
        out = sign_to_pm1(np.array([np.nan, -np.inf, np.inf, -0.0]))
        np.testing.assert_array_equal(out, [-1, -1, 1, 1])
        assert out.dtype == np.int8

    def test_no_wide_temporary(self):
        """The result is built as int8; only the boolean mask is extra."""
        values = np.random.default_rng(5).standard_normal((64, 4096))
        tracemalloc.start()
        sign_to_pm1(values)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak <= 3 * values.size


@st.composite
def sign_codes(draw):
    """A random (r, n) code matrix over {-1, +1}, r in 1..300 and n in 0..50."""
    r = draw(st.integers(1, 300))
    n = draw(st.integers(0, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.where(rng.random((r, n)) < 0.5, 1, -1).astype(np.int8)


class TestPackUnpack:
    def test_lsb_first_byte_value(self):
        """A column (+1, -1, ..., -1) at r=8 packs to the single byte 0x01."""
        column = np.array([[1], [-1], [-1], [-1], [-1], [-1], [-1], [-1]], dtype=np.int8)
        packed = pack_codes(column)
        assert packed.shape == (1, 1)
        assert packed[0, 0] == 0x01

    def test_round_trip_many_lengths(self):
        rng = np.random.default_rng(0)
        for code_length in (1, 2, 7, 8, 9, 16, 33, 70):
            codes = sign_to_pm1(rng.standard_normal((code_length, 5)))
            packed = pack_codes(codes)
            assert packed.shape == ((code_length + 7) // 8, 5)
            np.testing.assert_array_equal(unpack_codes(packed, code_length), codes)

    @settings(max_examples=200, deadline=None)
    @given(sign_codes())
    def test_matches_packbits_along_code_axis(self, codes):
        expected = np.packbits(codes > 0, axis=0, bitorder="little")
        packed = pack_codes(codes)
        assert packed.dtype == np.uint8
        np.testing.assert_array_equal(packed, expected)
        assert packed.T.flags.c_contiguous  # item-major: each code's bytes are contiguous

    @settings(max_examples=200, deadline=None)
    @given(sign_codes())
    def test_unpack_inverts_pack(self, codes):
        np.testing.assert_array_equal(unpack_codes(pack_codes(codes), codes.shape[0]), codes)

    def test_rejects_non_sign_entries(self):
        with pytest.raises(InvalidParameterError):
            pack_codes(np.array([[1, 0], [-1, 1]]))

    def test_unpack_has_no_wide_temporary(self):
        """Unpacking turns the unpacked bits into +-1 in place: one int8 (r, n) array."""
        codes = sign_to_pm1(np.random.default_rng(6).standard_normal((64, 4096)))
        packed = pack_codes(codes)
        tracemalloc.start()
        out = unpack_codes(packed, 64)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        np.testing.assert_array_equal(out, codes)
        assert out.dtype == np.int8
        assert peak <= 1.5 * codes.size

    def test_rejects_vectors(self):
        with pytest.raises(ShapeError):
            pack_codes(np.array([1, -1, 1]))


class TestCodeMatrix:
    """Matrices read by ``load_codes`` carry their packed bytes; derived arrays do not."""

    @settings(max_examples=100, deadline=None)
    @given(codes=sign_codes())
    def test_carried_bytes_equal_a_fresh_pack(self, tmp_path_factory, codes):
        path = tmp_path_factory.mktemp("carried") / "codes.amfh"
        store_codes(codes, path)
        loaded = load_codes(path)
        assert isinstance(loaded, CodeMatrix) and loaded.dtype == np.int8
        np.testing.assert_array_equal(loaded, codes)
        assert loaded.packed.dtype == np.uint8
        assert loaded.packed.tobytes() == pack_codes(np.array(loaded)).tobytes()
        assert pack_codes(loaded) is loaded.packed
        assert loaded.packed.T.flags.c_contiguous

    @pytest.mark.parametrize(
        "code_length, word_bytes",
        [(1, 1), (16, 2), (24, 1), (32, 4), (64, 8), (128, 8), (200, 1), (300, 2)],
    )
    def test_words_view_the_carried_bytes(self, tmp_path, code_length, word_bytes):
        """A stored database ranks from word views of its own bytes, never a copy."""
        codes = sign_to_pm1(np.random.default_rng(code_length).standard_normal((code_length, 37)))
        store_codes(codes, tmp_path / "codes.amfh")
        loaded = load_codes(tmp_path / "codes.amfh")
        words = _words(loaded.packed)
        assert np.shares_memory(words, loaded.packed)
        assert words.dtype.itemsize == word_bytes
        assert words.shape == (37, (code_length + 7) // 8 // word_bytes)
        assert words.tobytes() == loaded.packed.T.tobytes()

    def test_derived_arrays_carry_nothing(self, tmp_path):
        codes = sign_to_pm1(np.random.default_rng(4).standard_normal((13, 20)))
        store_codes(codes, tmp_path / "codes.amfh")
        loaded = load_codes(tmp_path / "codes.amfh")
        derived = [
            loaded[:, 3:11],
            loaded[:9],
            loaded[::-1],
            loaded.T.T,
            loaded.copy(),
            loaded.astype(np.int8),
            loaded * 1,
            -loaded,
            np.negative(loaded),
            np.array(loaded),
            np.asarray(loaded),
        ]
        for arr in derived:
            assert getattr(arr, "packed", None) is None
            plain = np.array(arr)
            expected = np.packbits(plain > 0, axis=0, bitorder="little")
            np.testing.assert_array_equal(pack_codes(arr), expected)
            np.testing.assert_array_equal(pack_codes(arr), pack_codes(plain))
        assert loaded[:, 0].packed is None

    def test_loaded_matrix_cannot_be_written(self, tmp_path):
        store_codes(np.ones((9, 4), dtype=np.int8), tmp_path / "codes.amfh")
        loaded = load_codes(tmp_path / "codes.amfh")
        with pytest.raises(ValueError):
            loaded[0, 0] = -1
        with pytest.raises(ValueError):
            loaded[:, 1:2] *= -1
        with pytest.raises(ValueError):
            loaded.flags.writeable = True
        with pytest.raises(ValueError):
            loaded.packed[0, 0] = 0
        np.testing.assert_array_equal(loaded, 1)


class TestPackedHamming:
    def test_matches_naive_loop(self):
        rng = np.random.default_rng(1)
        for code_length in (3, 8, 17, 64):
            db = sign_to_pm1(rng.standard_normal((code_length, 20)))
            query = sign_to_pm1(rng.standard_normal(code_length))
            distances = packed_hamming(
                pack_codes(query.reshape(-1, 1))[:, 0], pack_codes(db)
            )
            expected = [naive_hamming(query, db[:, j]) for j in range(20)]
            np.testing.assert_array_equal(distances, expected)

    def test_identical_and_antipodal(self):
        rng = np.random.default_rng(2)
        code = sign_to_pm1(rng.standard_normal(16))
        db = np.stack([code, -code], axis=1)
        distances = packed_hamming(
            pack_codes(code.reshape(-1, 1))[:, 0], pack_codes(db)
        )
        np.testing.assert_array_equal(distances, [0, 16])

    def test_padding_bits_do_not_leak(self):
        """Lengths that do not fill the last byte still give exact distances."""
        rng = np.random.default_rng(3)
        codes = sign_to_pm1(rng.standard_normal((13, 30)))
        packed = pack_codes(codes)
        for j in range(30):
            distances = packed_hamming(packed[:, j], packed)
            expected = [naive_hamming(codes[:, j], codes[:, i]) for i in range(30)]
            np.testing.assert_array_equal(distances, expected)
