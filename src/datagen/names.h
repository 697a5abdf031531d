#ifndef AQP_DATAGEN_NAMES_H_
#define AQP_DATAGEN_NAMES_H_

#include <string>

#include "common/random.h"

namespace aqp {
namespace datagen {

/// \brief Generates Italian-style location strings shaped like the
/// paper's join attribute: "TAA BZ SANTA CRISTINA VALGARDENA"
/// (region code, province code, multi-word municipality name).
///
/// The generator is purely synthetic — a substitute for the real
/// 8082-municipality table the paper obtained from Markl et al.'s
/// generator. It reproduces only what the experiments depend on: the
/// string shape and length. Length statistics are controlled so that
/// one-character edits land just below θ_sim = 0.85 under q = 3
/// Jaccard, as in the paper's setup: `min_length` defaults to 36
/// characters, which guarantees J(s, edit1(s)) >= 0.85.
class LocationNameGenerator {
 public:
  explicit LocationNameGenerator(size_t min_length = 36)
      : min_length_(min_length) {}

  /// Produces one location string (not guaranteed unique; the atlas
  /// generator dedupes).
  std::string Generate(Rng* rng) const;

  size_t min_length() const { return min_length_; }

 private:
  /// A pronounceable municipality base name from Italianate syllables.
  std::string BaseName(Rng* rng) const;

  size_t min_length_;
};

}  // namespace datagen
}  // namespace aqp

#endif  // AQP_DATAGEN_NAMES_H_
