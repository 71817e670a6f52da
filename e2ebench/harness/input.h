#ifndef E2EBENCH_HARNESS_INPUT_H_
#define E2EBENCH_HARNESS_INPUT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/document.h"
#include "core/types.h"
#include "gen/tweet_generator.h"

namespace e2ebench {

/// One workload's document stream, generated from the run's seed and
/// rendered to tweet text during set-up, so the timed region only copies
/// prepared text into the pipeline: a warm-up prefix (every document
/// stamped before `warm_until`), then the `round_docs` documents each
/// measured round replays from the warm-up state.
class StreamInput {
 public:
  StreamInput(const corrtrack::gen::GeneratorConfig& config,
              corrtrack::Timestamp warm_until, size_t round_docs) {
    corrtrack::gen::TweetGenerator generator(config);
    for (;;) {
      corrtrack::Document doc = generator.Next();
      if (doc.time >= warm_until && warm_ == 0) warm_ = docs_.size();
      if (warm_ > 0 && docs_.size() == warm_ + round_docs) break;
      texts_.push_back(corrtrack::gen::TweetGenerator::RenderText(doc));
      docs_.push_back(std::move(doc));
    }
  }

  /// Stream position k: the generator's document (its tags are generator
  /// tag ids) and its rendered text.
  const corrtrack::Document& doc(uint64_t k) const { return docs_[k]; }
  const std::string& text(uint64_t k) const { return texts_[k]; }

  /// Positions [0, warm_docs()) are the warm-up prefix; the round follows
  /// up to size().
  uint64_t warm_docs() const { return warm_; }
  uint64_t size() const { return docs_.size(); }

 private:
  std::vector<corrtrack::Document> docs_;
  std::vector<std::string> texts_;
  size_t warm_ = 0;
};

}  // namespace e2ebench

#endif  // E2EBENCH_HARNESS_INPUT_H_
