#include "api/schema.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/check.h"

namespace accl {

Dim AttributeSchema::AddAttribute(std::string name, double lo, double hi) {
  ACCL_CHECK(lo < hi);
  ACCL_CHECK(!DimensionOf(name).has_value());
  attrs_.push_back(Attr{std::move(name), lo, hi});
  return static_cast<Dim>(attrs_.size() - 1);
}

std::optional<Dim> AttributeSchema::DimensionOf(std::string_view name) const {
  for (Dim d = 0; d < dims(); ++d) {
    if (attrs_[d].name == name) return d;
  }
  return std::nullopt;
}

float AttributeSchema::Normalize(Dim d, double value) const {
  const Attr& a = attrs_[d];
  double x = (value - a.lo) / (a.hi - a.lo);
  if (x < 0.0) x = 0.0;
  if (x > 1.0) x = 1.0;
  return static_cast<float>(x);
}

double AttributeSchema::Denormalize(Dim d, float x) const {
  const Attr& a = attrs_[d];
  return a.lo + (a.hi - a.lo) * static_cast<double>(x);
}

bool AttributeSchema::MakeBox(const std::vector<AttributeRange>& ranges,
                              Box* out) const {
  Box b = Box::FullDomain(dims());
  std::vector<bool> seen(dims(), false);
  for (const AttributeRange& r : ranges) {
    auto d = DimensionOf(r.name);
    if (!d.has_value()) return false;
    if (seen[*d]) return false;
    seen[*d] = true;
    // NaN compares false against everything, so it must be refused before
    // the ordering test can wave it through.
    if (!std::isfinite(r.lo) || !std::isfinite(r.hi)) return false;
    if (r.lo > r.hi) return false;
    const float lo = Normalize(*d, r.lo);
    const float hi = Normalize(*d, r.hi);
    if (lo > hi) return false;
    b.set(*d, lo, hi);
  }
  *out = std::move(b);
  return true;
}

bool AttributeSchema::MakePoint(const std::vector<AttributeValue>& values,
                                std::vector<float>* out) const {
  if (values.size() != dims()) return false;
  std::vector<float> pt(dims());
  std::vector<bool> seen(dims(), false);
  for (const AttributeValue& v : values) {
    auto d = DimensionOf(v.name);
    if (!d.has_value() || seen[*d]) return false;
    if (!std::isfinite(v.value)) return false;
    seen[*d] = true;
    pt[*d] = Normalize(*d, v.value);
  }
  *out = std::move(pt);
  return true;
}

std::string AttributeSchema::Describe(const Box& box) const {
  ACCL_CHECK(box.dims() == dims());
  std::string s;
  for (Dim d = 0; d < dims(); ++d) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s%s=[%.6g,%.6g]", d ? ", " : "",
                  attrs_[d].name.c_str(), Denormalize(d, box.lo(d)),
                  Denormalize(d, box.hi(d)));
    s += buf;
  }
  return s;
}

}  // namespace accl
