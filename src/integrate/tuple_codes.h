#ifndef DIALITE_INTEGRATE_TUPLE_CODES_H_
#define DIALITE_INTEGRATE_TUPLE_CODES_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "table/table.h"

namespace dialite {

/// Dense 32-bit cell codes for full-disjunction computation.
///
/// Every cell of the outer union is encoded once:
///   0  (kProducedNullCode)  produced null ⊥
///   1  (kMissingNullCode)   missing null ±
///   ≥2                      one code per Identical-equivalence class of
///                           non-null values (so int 5 and double 5.0 share
///                           a code, and string classes are dictionary ids
///                           remapped densely)
///
/// Cell agreement, complementation, subsumption, merge, and tuple identity
/// then become pure integer comparisons; codes decode back to Values only at
/// the output boundary. NaN cells get a fresh code per occurrence, matching
/// Identical()'s NaN ≠ NaN.
constexpr uint32_t kProducedNullCode = 0;
constexpr uint32_t kMissingNullCode = 1;

inline bool CodeIsNull(uint32_t code) { return code <= kMissingNullCode; }

/// Encoder + decode table. One codec instance encodes cells of ONE table
/// (its string cache is keyed by that table's dictionary ids).
class TupleCodec {
 public:
  /// Encodes every cell of `t`, row-major (`t.num_rows() * t.num_columns()`
  /// codes). May be called once per codec.
  std::vector<uint32_t> EncodeTable(const Table& t);

  /// Representative Value of a code: nulls for the two null codes, else the
  /// first-seen cell of the equivalence class.
  const Value& Decode(uint32_t code) const { return decode_[code]; }

  size_t num_codes() const { return decode_.size(); }

 private:
  uint32_t Encode(const ColumnView& col, size_t r);

  std::vector<Value> decode_ = {Value::ProducedNull(),
                                Value::Null(NullKind::kMissing)};
  std::vector<uint32_t> string_codes_;  // dict id -> code
  std::unordered_map<int64_t, uint32_t> int_codes_;
  std::unordered_map<uint64_t, uint32_t> double_codes_;  // non-integral bits
};

/// Tuple operations on raw code spans — the integer forms of
/// TuplesComplement / TupleSubsumedBy / MergeTuples / row identity.

/// TuplesComplement: equal codes wherever both non-null, sharing ≥1 such
/// attribute.
inline bool CodedComplement(const uint32_t* a, const uint32_t* b,
                            size_t width) {
  bool shared = false;
  for (size_t c = 0; c < width; ++c) {
    if (CodeIsNull(a[c]) || CodeIsNull(b[c])) continue;
    if (a[c] != b[c]) return false;
    shared = true;
  }
  return shared;
}

/// TupleSubsumedBy: b matches a's every non-null attribute.
inline bool CodedSubsumedBy(const uint32_t* a, const uint32_t* b,
                            size_t width) {
  for (size_t c = 0; c < width; ++c) {
    if (CodeIsNull(a[c])) continue;
    if (a[c] != b[c]) return false;
  }
  return true;
}

/// MergeTuples: non-null codes win; for two nulls, missing (1) outranks
/// produced (0) — exactly max() on the null codes.
inline void CodedMerge(const uint32_t* a, const uint32_t* b, size_t width,
                       uint32_t* out) {
  for (size_t c = 0; c < width; ++c) {
    out[c] = !CodeIsNull(a[c]) ? a[c]
             : !CodeIsNull(b[c]) ? b[c]
                                 : (a[c] > b[c] ? a[c] : b[c]);
  }
}

/// Row identity under Value::Identical: nulls of either kind match.
inline bool CodedIdentical(const uint32_t* a, const uint32_t* b,
                           size_t width) {
  for (size_t c = 0; c < width; ++c) {
    if (a[c] != b[c] && !(CodeIsNull(a[c]) && CodeIsNull(b[c]))) return false;
  }
  return true;
}

/// Hash consistent with CodedIdentical (both null codes hash alike).
inline uint64_t CodedRowKey(const uint32_t* row, size_t width) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (size_t c = 0; c < width; ++c) {
    h = HashCombine(h, CodeIsNull(row[c]) ? 0 : row[c]);
  }
  return h;
}

/// Per-tuple cell masks: bit c % 64 of word c / 64 stands for cell c, so a
/// row of any width takes MaskWords(width) words.
inline size_t MaskWords(size_t width) { return (width + 63) / 64; }

/// Writes the mask of `row`'s non-null cells (`null_cells` false) or of its
/// null cells (`null_cells` true) into `mask[0, MaskWords(width))`.
inline void CodedCellMask(const uint32_t* row, size_t width, bool null_cells,
                          uint64_t* mask) {
  for (size_t w = 0; w < MaskWords(width); ++w) mask[w] = 0;
  for (size_t c = 0; c < width; ++c) {
    if (CodeIsNull(row[c]) == null_cells) {
      mask[c / 64] |= uint64_t{1} << (c % 64);
    }
  }
}

/// True iff the masks share a set bit — e.g. a candidate's non-null mask
/// against a tuple's null mask: the candidate could fill one of its nulls.
inline bool MasksIntersect(const uint64_t* a, const uint64_t* b,
                           size_t words) {
  for (size_t w = 0; w < words; ++w) {
    if ((a[w] & b[w]) != 0) return true;
  }
  return false;
}

/// True iff every bit of `a` is set in `b` — for non-null masks, a
/// necessary condition for CodedSubsumedBy(a's row, b's row).
inline bool MaskSubsetOf(const uint64_t* a, const uint64_t* b, size_t words) {
  for (size_t w = 0; w < words; ++w) {
    if ((a[w] & ~b[w]) != 0) return false;
  }
  return true;
}

}  // namespace dialite

#endif  // DIALITE_INTEGRATE_TUPLE_CODES_H_
