#include "embed/embedding.hpp"

#include <cmath>

#include "common/json.hpp"

namespace laminar::embed {

float Dot(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) return 0.0f;
  return simd::Dot(a.data(), b.data(), a.size());
}

float Norm(std::span<const float> a) {
  float sum = 0.0f;
  for (float x : a) sum += x * x;
  return std::sqrt(sum);
}

void L2Normalize(Vector& v) {
  float n = Norm(v);
  if (n <= 0.0f) return;
  for (float& x : v) x /= n;
}

float Cosine(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size() || a.empty()) return 0.0f;
  float na = Norm(a);
  if (na <= 0.0f) return 0.0f;
  return CosineWithNorm(a, na, b);
}

float DotNormalized(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size() || a.empty()) return 0.0f;
  return simd::Dot(a.data(), b.data(), a.size());
}

float CosineWithNorm(std::span<const float> a, float norm_a,
                     std::span<const float> b) {
  if (a.size() != b.size() || a.empty() || norm_a <= 0.0f) return 0.0f;
  float nb = Norm(b);
  if (nb <= 0.0f) return 0.0f;
  return simd::Dot(a.data(), b.data(), a.size()) / (norm_a * nb);
}

std::string ToJson(const Vector& v) {
  // Same bytes as a Value array of doubles, without building one. Numbers
  // are formatted into a stack buffer flushed in blocks: a sparse embedding
  // is mostly "0.0,", so per-number string appends would dominate. The
  // reservation is the all-zero length; nonzero entries grow past it. The
  // result is trimmed to its size because the caller stores it in a
  // registry column, where a doubled growth capacity would stay resident.
  std::string out;
  out.reserve(v.size() * 4 + 2);
  constexpr ptrdiff_t kRoom = json::kMaxNumberChars + 2;  // ',' number ']'
  char buf[1024];
  char* p = buf;
  *p++ = '[';
  for (size_t i = 0; i < v.size(); ++i) {
    if (buf + sizeof buf - p < kRoom) {
      out.append(buf, p);
      p = buf;
    }
    if (i) *p++ = ',';
    p = json::WriteNumber(p, static_cast<double>(v[i]));
  }
  *p++ = ']';
  out.append(buf, p);
  out.shrink_to_fit();
  return out;
}

Vector FromJson(std::string_view json_text) {
  Vector out;
  if (!json::ParseNumberArray(json_text, out)) return {};
  return out;
}

}  // namespace laminar::embed
