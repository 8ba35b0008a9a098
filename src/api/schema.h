// Attribute schemas: named, typed attribute domains mapped onto the
// normalized [0,1] coordinate space the indexes operate in.
//
// The paper's motivating application (§1) expresses subscriptions over
// named attributes ("rent between 400$ and 700$, 3 to 5 rooms"); this layer
// handles the bookkeeping from such predicates to hyper-rectangles and
// back, so application code never deals in raw normalized floats.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/types.h"
#include "geometry/box.h"

namespace accl {

/// A named attribute range predicate (closed interval in domain units).
struct AttributeRange {
  std::string name;
  double lo;
  double hi;
};

/// A named attribute point value (for events / point queries).
struct AttributeValue {
  std::string name;
  double value;
};

/// Immutable-after-setup mapping from named attribute domains to dimensions.
class AttributeSchema {
 public:
  /// Registers an attribute with its domain [lo, hi]; returns its
  /// dimension index. Names must be unique; lo < hi required.
  Dim AddAttribute(std::string name, double lo, double hi);

  /// Number of attributes (= index dimensionality).
  Dim dims() const { return static_cast<Dim>(attrs_.size()); }

  /// Dimension of a named attribute, or nullopt when unknown.
  std::optional<Dim> DimensionOf(std::string_view name) const;

  const std::string& NameOf(Dim d) const { return attrs_[d].name; }
  double DomainLo(Dim d) const { return attrs_[d].lo; }
  double DomainHi(Dim d) const { return attrs_[d].hi; }

  /// Maps a domain value into [0,1], clamping to the domain.
  float Normalize(Dim d, double value) const;

  /// Maps a normalized coordinate back into domain units.
  double Denormalize(Dim d, float x) const;

  /// Builds a hyper-rectangle from range predicates. Attributes not
  /// mentioned span their whole domain (the paper's subscriptions leave
  /// unspecified attributes unconstrained). Returns false when a name is
  /// unknown, duplicated, or a range is inverted, non-finite (NaN or
  /// infinite) or outside the domain tolerance.
  bool MakeBox(const std::vector<AttributeRange>& ranges, Box* out) const;

  /// Builds a point (as normalized coordinates) from attribute values.
  /// Every attribute must be given exactly once, with a finite value;
  /// returns false otherwise.
  bool MakePoint(const std::vector<AttributeValue>& values,
                 std::vector<float>* out) const;

  /// Human-readable rendering of a normalized box in domain units.
  std::string Describe(const Box& box) const;

 private:
  struct Attr {
    std::string name;
    double lo;
    double hi;
  };
  std::vector<Attr> attrs_;
};

}  // namespace accl
