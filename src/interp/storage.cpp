#include "interp/storage.h"

namespace ap::interp {

ArrayStore::ArrayStore(fir::Type type, std::vector<int64_t> lower,
                       std::vector<int64_t> extent)
    : type_(type), lower_(std::move(lower)), extent_(std::move(extent)) {
  int64_t n = 1;
  for (int64_t e : extent_) n *= (e > 0 ? e : 1);
  data_.assign(static_cast<size_t>(n), 0.0);
}

std::optional<int64_t> ArrayStore::linear_offset(
    const std::vector<int64_t>& subs) const {
  if (subs.size() != extent_.size()) return std::nullopt;
  int64_t off = 0, stride = 1;
  for (size_t d = 0; d < subs.size(); ++d) {
    int64_t rel = subs[d] - lower_[d];
    if (rel < 0 || rel >= extent_[d]) return std::nullopt;
    off += rel * stride;
    stride *= extent_[d];
  }
  return off;
}

std::optional<int64_t> ArrayView::cell(const std::vector<int64_t>& subs) const {
  if (subs.size() != extent.size()) return std::nullopt;
  int64_t off = base, stride = 1;
  for (size_t d = 0; d < subs.size(); ++d) {
    int64_t rel = subs[d] - lower[d];
    if (rel < 0) return std::nullopt;
    // extent -1 = assumed size (legal only in the last dimension): the
    // upper bound check falls back to the underlying store size below.
    if (extent[d] >= 0 && rel >= extent[d]) return std::nullopt;
    off += rel * stride;
    stride *= (extent[d] >= 0 ? extent[d] : 1);
  }
  if (off < 0 || off >= static_cast<int64_t>(store->size())) return std::nullopt;
  return off;
}

std::shared_ptr<ArrayStore> GlobalStore::get_or_create_array(
    const std::string& key, fir::Type type, std::vector<int64_t> lower,
    std::vector<int64_t> extent) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = arrays_.find(key);
  if (it != arrays_.end()) return it->second;
  auto st = std::make_shared<ArrayStore>(type, std::move(lower), std::move(extent));
  arrays_[key] = st;
  return st;
}

double* GlobalStore::get_or_create_scalar(const std::string& key, bool is_int) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = scalars_.find(key);
  if (it != scalars_.end()) return it->second.get();
  auto cell = std::make_unique<double>(0.0);
  double* p = cell.get();
  scalars_[key] = std::move(cell);
  scalar_int_[key] = is_int;
  return p;
}

bool GlobalStore::scalar_is_int(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = scalar_int_.find(key);
  return it != scalar_int_.end() && it->second;
}

std::map<std::string, std::vector<double>> GlobalStore::snapshot_arrays() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::vector<double>> out;
  for (const auto& [k, v] : arrays_) out[k] = v->raw();
  return out;
}

std::map<std::string, double> GlobalStore::snapshot_scalars() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [k, v] : scalars_) out[k] = *v;
  return out;
}

}  // namespace ap::interp
