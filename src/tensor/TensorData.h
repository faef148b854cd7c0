//===- TensorData.h - Dense host tensor storage ---------------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dense host-side tensor storage used by the functional simulator and the
/// reference implementations. FP16 tensors store FP32 values quantized
/// through binary16 on every write, matching the Tensor Core FP16 data path.
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_TENSOR_TENSORDATA_H
#define CYPRESS_TENSOR_TENSORDATA_H

#include "support/Fp16.h"
#include "tensor/Shape.h"

#include <vector>

namespace cypress {

/// A dense, row-major host tensor.
class TensorData {
public:
  TensorData() = default;
  explicit TensorData(TensorType Type)
      : Type(std::move(Type)),
        Values(static_cast<size_t>(this->Type.Dims.numElements()), 0.0f) {}

  const TensorType &type() const { return Type; }
  const Shape &shape() const { return Type.Dims; }
  int64_t numElements() const { return Type.Dims.numElements(); }

  float at(int64_t LinearIndex) const {
    return Values[static_cast<size_t>(LinearIndex)];
  }
  float at(const std::vector<int64_t> &Index) const {
    return Values[static_cast<size_t>(Type.Dims.linearize(Index))];
  }

  /// Stores \p Value, quantizing through FP16 when the element type is F16.
  void set(int64_t LinearIndex, float Value) {
    if (Type.Element == ElementType::F16)
      Value = quantizeFp16(Value);
    Values[static_cast<size_t>(LinearIndex)] = Value;
  }
  void set(const std::vector<int64_t> &Index, float Value) {
    set(Type.Dims.linearize(Index), Value);
  }

  /// Raw storage access for bulk operations (values are already quantized).
  const std::vector<float> &raw() const { return Values; }
  std::vector<float> &raw() { return Values; }

  void fill(float Value) {
    if (Type.Element == ElementType::F16)
      Value = quantizeFp16(Value);
    for (float &V : Values)
      V = Value;
  }

  /// Maximum absolute element-wise difference against \p Other.
  /// Shapes must match.
  double maxAbsDiff(const TensorData &Other) const;

private:
  TensorType Type;
  std::vector<float> Values;
};

} // namespace cypress

#endif // CYPRESS_TENSOR_TENSORDATA_H
