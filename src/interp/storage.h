// Runtime storage model for the F77-subset interpreter.
//
// All numeric cells are stored as double with a static "integer" tag taken
// from declarations (Fortran INTEGERs in the mini-suite stay far below
// 2^53, so doubles represent them exactly; integer division/MOD semantics
// are applied based on the tag). Arrays are column-major, contiguous, with
// per-dimension lower bounds, matching Fortran storage sequence — which is
// what makes element-base argument passing (CALL F(T(IX(7))) viewing a
// region of T) behave exactly like the real thing.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "fir/ast.h"

namespace ap::interp {

struct RtVal {
  double v = 0.0;
  bool is_int = false;

  int64_t as_int() const { return static_cast<int64_t>(v); }
  static RtVal real(double d) { return RtVal{d, false}; }
  static RtVal integer(int64_t i) { return RtVal{static_cast<double>(i), true}; }
  static RtVal logical(bool b) { return RtVal{b ? 1.0 : 0.0, true}; }
  bool truthy() const { return v != 0.0; }
};

class ArrayStore {
 public:
  ArrayStore(fir::Type type, std::vector<int64_t> lower,
             std::vector<int64_t> extent);

  fir::Type elem_type() const { return type_; }
  size_t rank() const { return extent_.size(); }
  int64_t lower(size_t d) const { return lower_[d]; }
  int64_t extent(size_t d) const { return extent_[d]; }
  size_t size() const { return data_.size(); }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  // Linear offset of a subscript tuple (no bounds adjustment for views).
  // Returns nullopt when out of bounds.
  std::optional<int64_t> linear_offset(const std::vector<int64_t>& subs) const;

  std::vector<double>& raw() { return data_; }
  const std::vector<double>& raw() const { return data_; }

 private:
  fir::Type type_;
  std::vector<int64_t> lower_, extent_;
  std::vector<double> data_;
};

// A view into an ArrayStore: base linear offset (element-base argument
// passing) plus the viewing unit's own shape declaration.
struct ArrayView {
  std::shared_ptr<ArrayStore> store;
  int64_t base = 0;                  // linear offset of view element (1,..,1)
  std::vector<int64_t> lower, extent;  // viewer's shape; extent -1 = assumed (*)
  bool is_int = false;

  // Linear cell index for a subscript tuple under the VIEW shape. Checked
  // against the underlying store size.
  std::optional<int64_t> cell(const std::vector<int64_t>& subs) const;
};

// A scalar cell reference: either into a frame-local slot or an array
// element; resolved to a raw pointer (stable storage guaranteed by the
// owners).
struct ScalarRef {
  double* cell = nullptr;
  bool is_int = false;
};

// Global (COMMON) storage shared by all frames and threads. Keyed by
// "BLOCK/NAME". Every member is thread-safe: a COMMON block is created on
// first touch, which can happen inside a parallel region when a CALLed
// subroutine declares a block the encountering unit lacks. Cells and
// stores never move once created, so the returned pointers stay valid for
// the store's lifetime.
class GlobalStore {
 public:
  std::shared_ptr<ArrayStore> get_or_create_array(const std::string& key,
                                                  fir::Type type,
                                                  std::vector<int64_t> lower,
                                                  std::vector<int64_t> extent);
  double* get_or_create_scalar(const std::string& key, bool is_int);
  bool scalar_is_int(const std::string& key) const;

  // State snapshot/compare for the runtime tester.
  std::map<std::string, std::vector<double>> snapshot_arrays() const;
  std::map<std::string, double> snapshot_scalars() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<ArrayStore>> arrays_;
  std::map<std::string, std::unique_ptr<double>> scalars_;
  std::map<std::string, bool> scalar_int_;
};

}  // namespace ap::interp
